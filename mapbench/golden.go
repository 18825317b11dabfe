package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
	"cgramap/internal/sim"
)

// golden holds the known answers every run is checked against.
type golden struct {
	Provenance string `json:"provenance"`
	// Ladder maps a ladder item key to its minimal II.
	Ladder map[string]int `json:"ladder"`
	// Sweep maps a sweep cell key to its Table 2 verdict: "0", "1", or
	// "T" for a cell no budget here decides (any decided answer there is
	// checked by verification alone).
	Sweep map[string]string `json:"sweep"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden parses the embedded golden.json.
func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing golden answers: %w", err)
	}
	return &g, nil
}

// Golden answers are recorded through a different code path from the
// one the workloads measure, so a bug in the measured path cannot agree
// with itself: no artifact cache, every rung from II=1 (no MII shortcut),
// symmetry breaking flipped relative to the workload, another seed.
const (
	goldenSeed       = 424242
	goldenRungBudget = 5 * time.Minute
	goldenCellBudget = 20 * time.Second
	goldenProvenance = "recorded by `mapbench -record-golden`: ladder minimal IIs from scratch mapper.Map " +
		"solves of every rung from II=1 with symmetry off, no artifact cache and seed 424242 (the workload " +
		"runs MapAuto from the MII with symmetry on, an artifact cache and workload-derived seeds); sweep " +
		"verdicts from mapper.Map with symmetry on, no artifact cache and seed 424242 at a 20 s budget " +
		"(the daemon solves with symmetry off, its artifact cache and seed 1 at a 1 s budget), every 0 " +
		"cross-checked against sched.MII exceeding the context count; T marks cells undecided at 20 s"
)

// recordGolden recomputes every golden answer and writes them to path.
func recordGolden(path string, logf func(string, ...any)) error {
	g := &golden{Provenance: goldenProvenance, Ladder: map[string]int{}, Sweep: map[string]string{}}
	for _, it := range ladderPanel {
		ii, err := scratchMinII(it, logf)
		if err != nil {
			return err
		}
		g.Ladder[it.key()] = ii
	}
	for _, c := range sweepCells {
		v, err := scratchVerdict(c)
		if err != nil {
			return err
		}
		logf("sweep %s: %s", c.key(), v)
		g.Sweep[c.key()] = v
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func scratchMinII(it panelItem, logf func(string, ...any)) (int, error) {
	g, err := bench.Get(it.Kernel)
	if err != nil {
		return 0, err
	}
	for ii := 1; ii <= ladderMaxII; ii++ {
		spec := it.Spec
		spec.Contexts = ii
		a, err := arch.Grid(spec)
		if err != nil {
			return 0, err
		}
		mg, err := mrrg.Generate(a)
		if err != nil {
			logf("ladder %s II=%d: no MRRG (%v)", it.key(), ii, err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), goldenRungBudget)
		res, err := mapper.Map(ctx, g, mg, mapper.Options{Seed: goldenSeed, Symmetry: mapper.SymmetryOff})
		cancel()
		if err != nil {
			return 0, err
		}
		logf("ladder %s II=%d: %v %s", it.key(), ii, res.Status, res.Reason)
		switch {
		case res.Feasible():
			if g.Acyclic() {
				if err := sim.Validate(res.Mapping, sim.DefaultInputs(g, 1), nil); err != nil {
					return 0, fmt.Errorf("golden %s: %w", it.key(), err)
				}
			}
			return ii, nil
		case res.Status == ilp.Unknown:
			return 0, fmt.Errorf("golden %s: II=%d undecided within %v", it.key(), ii, goldenRungBudget)
		}
	}
	return 0, fmt.Errorf("golden %s: no feasible II up to %d", it.key(), ladderMaxII)
}

func scratchVerdict(c panelItem) (string, error) {
	g, err := bench.Get(c.Kernel)
	if err != nil {
		return "", err
	}
	a, err := arch.Grid(c.Spec)
	if err != nil {
		return "", err
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), goldenCellBudget)
	res, err := mapper.Map(ctx, g, mg, mapper.Options{Seed: goldenSeed, Symmetry: mapper.SymmetryOn})
	cancel()
	if err != nil {
		return "", err
	}
	switch {
	case res.Feasible():
		if g.Acyclic() {
			if err := sim.Validate(res.Mapping, sim.DefaultInputs(g, 1), nil); err != nil {
				return "", fmt.Errorf("golden %s: %w", c.key(), err)
			}
		}
		return "1", nil
	case res.Status == ilp.Infeasible:
		single := c.Spec
		single.Contexts = 1
		a1, err := arch.Grid(single)
		if err != nil {
			return "", err
		}
		mg1, err := mrrg.Generate(a1)
		if err != nil {
			return "", err
		}
		mii, err := sched.MII(g, mg1)
		if err != nil || mii <= c.Spec.Contexts {
			return "", fmt.Errorf("golden %s: infeasible (%s) but sched.MII=%d (%v) does not confirm it", c.key(), res.Reason, mii, err)
		}
		return "0", nil
	default:
		return "T", nil
	}
}
