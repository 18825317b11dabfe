package portfolio

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/mapper"
	"cgramap/internal/solve/bb"
)

// TestResolveEngines: each engine name selects its engine, and anneal
// is refused where heuristic answers are not allowed.
func TestResolveEngines(t *testing.T) {
	for _, engine := range []string{"cdcl", "bb", "portfolio", "anneal"} {
		opts, err := Resolve(engine, true, mapper.Options{Solver: bb.New(), Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		_, isBB := opts.Solver.(*bb.Engine)
		if isBB != (engine == "bb") || (opts.MapWith != nil) != (engine == "portfolio" || engine == "anneal") {
			t.Errorf("%s resolved to Solver %T, MapWith set %v", engine, opts.Solver, opts.MapWith != nil)
		}
		if opts.Seed != 4 {
			t.Errorf("%s dropped the seed", engine)
		}
	}
	if _, err := Resolve("anneal", false, mapper.Options{}); err == nil || !strings.Contains(err.Error(), "requires an exact engine") {
		t.Errorf("anneal without heuristics: %v, want a \"requires an exact engine\" error", err)
	}
	if _, err := Resolve("gurobi", true, mapper.Options{}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestResolveAnnealSeeded: the anneal engine is seeded from
// Mapper.Seed. The same seed gives an identical mapping and move count,
// equal to the annealer's own run with that seed.
func TestResolveAnnealSeeded(t *testing.T) {
	g, mg := instance(t, "accum", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal,
		Homogeneous: true, Contexts: 1})
	ctx := context.Background()
	run := func(seed int64) *mapper.Result {
		opts, err := Resolve("anneal", true, mapper.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mapper.Dispatch(ctx, g, mg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible() {
			t.Fatalf("seed %d: annealer found no mapping for accum on 4x4", seed)
		}
		return res
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a.Mapping.Placement, b.Mapping.Placement) ||
		!reflect.DeepEqual(a.Mapping.Routes, b.Mapping.Routes) ||
		a.SolverStats["moves"] != b.SolverStats["moves"] {
		t.Errorf("same seed diverged: %d moves %v vs %d moves %v",
			a.SolverStats["moves"], a.Mapping.Placement, b.SolverStats["moves"], b.Mapping.Placement)
	}
	direct, err := anneal.Map(ctx, g, mg, anneal.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if int64(direct.Moves) != a.SolverStats["moves"] || !reflect.DeepEqual(direct.Mapping.Placement, a.Mapping.Placement) {
		t.Errorf("resolved anneal made %d moves, the annealer seeded 7 made %d: the seed did not arrive",
			a.SolverStats["moves"], direct.Moves)
	}
	if Proven(a) {
		t.Error("a heuristic witness counted as proven")
	}
}
