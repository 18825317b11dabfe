package mapper

import (
	"fmt"

	"cgramap/internal/budget"
)

// SolveFlags holds the solve knobs in the form command-line flags bind
// them. Each binary binds Mapper.Workers, Mapper.Seed, Mapper.Symmetry
// (a flag.Value) and ArtifactCache under its own flag names and
// defaults; Options turns them into Options the same way everywhere.
type SolveFlags struct {
	// Mapper holds the bound knobs. Workers 0 keeps the worker budget's
	// default size (all CPUs or $CGRAMAP_WORKERS) and uses all of it.
	Mapper Options
	// ArtifactCache is the per-class entry cap of the artifact cache;
	// <= 0 disables it.
	ArtifactCache int
}

// Options validates the flags and returns the Options they select. A
// positive Workers also resizes the process-wide worker budget, so call
// it once, at startup, before any solve begins.
func (f SolveFlags) Options() (Options, error) {
	opts := f.Mapper
	switch {
	case opts.Workers < 0:
		return Options{}, fmt.Errorf("mapper: solver workers must be non-negative, got %d", opts.Workers)
	case opts.Workers > 0:
		budget.SetGlobal(opts.Workers)
	default:
		opts.Workers = budget.Global().Size()
	}
	if f.ArtifactCache > 0 {
		opts.Artifacts = NewArtifactCache(f.ArtifactCache)
	}
	return opts, nil
}
