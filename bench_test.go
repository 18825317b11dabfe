package cgramap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md, experiment index):
//
//	BenchmarkTable1              benchmark characteristics (Table 1)
//	BenchmarkTable2/<arch>       ILP mappability row per architecture (Table 2)
//	BenchmarkFig8SA/<arch>       simulated-annealing side of Fig. 8
//	BenchmarkMRRGGenerate/...    device-model construction (Figs. 1-4, 6)
//	BenchmarkFormulate/...       ILP formulation build (Fig. 7 flow)
//	BenchmarkAblation...         design-choice ablations
//
// Per-iteration timeouts are kept short here so `go test -bench .`
// terminates promptly; `cmd/experiments` runs the same code with the
// paper-scale budgets and prints the full tables (EXPERIMENTS.md records
// those results).
//
// `go test -short -bench .` runs the quick tier only: the solver sweeps
// (Table 2, Fig. 8, ablations) are skipped and the construction
// benchmarks remain — the same split cmd/benchreg gates CI on. Every
// benchmark reports allocations.

import (
	"context"
	"io"
	"testing"
	"time"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/exper"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/bb"
)

// benchCellTimeout bounds each benchmark/architecture solve inside the
// testing.B loops.
const benchCellTimeout = 2 * time.Second

// BenchmarkTable1 regenerates Table 1: build all 19 benchmark DFGs and
// compute their characteristics.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exper.RenderTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates one architecture column of Table 2 per
// sub-benchmark: all 19 benchmarks through the ILP mapper. The reported
// "feasible" metric is the column's Total Feasible count at this budget.
func BenchmarkTable2(b *testing.B) {
	if testing.Short() {
		b.Skip("solver sweep: skipped in -short tier")
	}
	for _, spec := range arch.PaperArchitectures() {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweep, err := exper.RunSweep(context.Background(), exper.SweepOptions{
					Timeout: benchCellTimeout,
					Specs:   []arch.GridSpec{spec},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sweep.FeasibleTotals()[0]), "feasible")
			}
		})
	}
}

// fig8Kernels is the benchmark subset used for the in-tree Fig. 8 bench;
// cmd/experiments fig8 runs all 19.
var fig8Kernels = []string{"accum", "2x2-f", "2x2-p", "add_10", "mult_10", "exp_4"}

// BenchmarkFig8SA regenerates the simulated-annealing side of Fig. 8 on
// one architecture per sub-benchmark, reporting how many kernels the
// heuristic mapped.
func BenchmarkFig8SA(b *testing.B) {
	if testing.Short() {
		b.Skip("annealer sweep: skipped in -short tier")
	}
	for _, spec := range arch.PaperArchitectures() {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			mg := mustMRRG(b, spec)
			for i := 0; i < b.N; i++ {
				found := 0
				for _, name := range fig8Kernels {
					ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
					res, err := anneal.Map(ctx, bench.MustGet(name), mg, anneal.Options{})
					cancel()
					if err != nil {
						b.Fatal(err)
					}
					if res.Feasible {
						found++
					}
				}
				b.ReportMetric(float64(found), "feasible")
			}
		})
	}
}

// BenchmarkMRRGGenerate measures device-model generation (the expansion
// rules of Figs. 1-3 applied to the full Fig. 6 grid).
func BenchmarkMRRGGenerate(b *testing.B) {
	for _, spec := range []arch.GridSpec{
		{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1},
		{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 2},
		{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2},
	} {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			a, err := arch.Grid(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mrrg.Generate(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFormulate measures ILP model construction (the "ILP
// Formulation Creation" box of Fig. 7) for representative kernels.
func BenchmarkFormulate(b *testing.B) {
	mg := mustMRRG(b, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	for _, name := range []string{"2x2-f", "accum", "extreme"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			g := bench.MustGet(name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, reason, err := mapper.BuildModel(g, mg, mapper.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if m == nil {
					b.Fatal(reason)
				}
			}
		})
	}
}

// BenchmarkWriteLP measures LP-format emission of an 8x8 model, the
// export path to an external MILP solver (the paper's Gurobi runs).
// MB/s is LP text per second.
func BenchmarkWriteLP(b *testing.B) {
	mg := mustMRRG(b, arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Orthogonal, Homogeneous: false, Contexts: 1})
	m, reason, err := mapper.BuildModel(bench.MustGet("weighted_sum"), mg, mapper.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if m == nil {
		b.Fatal(reason)
	}
	var n byteCounter
	if err := m.WriteLP(&n); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteLP(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// byteCounter is an io.Writer that only counts bytes.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) { *c += byteCounter(len(p)); return len(p), nil }

// BenchmarkSolveFeasible measures an end-to-end feasible ILP solve.
func BenchmarkSolveFeasible(b *testing.B) {
	b.ReportAllocs()
	mg := mustMRRG(b, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1})
	g := bench.MustGet("accum")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapper.Map(context.Background(), g, mg, mapper.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible() {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkAblationPruning measures the reachability-pruning design
// choice: identical instance with and without pruning/presolve.
func BenchmarkAblationPruning(b *testing.B) {
	if testing.Short() {
		b.Skip("solver ablation: skipped in -short tier")
	}
	mg := mustMRRG(b, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1})
	g := bench.MustGet("2x2-f")
	for _, cfg := range []struct {
		name string
		opts mapper.Options
	}{
		{"pruned", mapper.Options{}},
		{"unpruned", mapper.Options{DisablePruning: true, DisablePresolve: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mapper.Map(context.Background(), g, mg, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Vars), "vars")
			}
		})
	}
}

// BenchmarkAblationEngine compares the CDCL engine against LP
// branch-and-bound on an instance small enough for both (2x2 grid).
func BenchmarkAblationEngine(b *testing.B) {
	if testing.Short() {
		b.Skip("solver ablation: skipped in -short tier")
	}
	mg := mustMRRG(b, arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1})
	g := bench.MustGet("2x2-f")
	for _, cfg := range []struct {
		name string
		opts mapper.Options
	}{
		{"cdcl", mapper.Options{}},
		{"branch-and-bound", mapper.Options{Solver: bb.New()}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, err := mapper.Map(ctx, g, mg, cfg.opts)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationObjective measures the cost of proving routing
// optimality (eq. 10) over plain feasibility.
func BenchmarkAblationObjective(b *testing.B) {
	if testing.Short() {
		b.Skip("solver ablation: skipped in -short tier")
	}
	mg := mustMRRG(b, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1})
	g := bench.MustGet("2x2-f")
	for _, cfg := range []struct {
		name string
		opts mapper.Options
	}{
		{"feasibility", mapper.Options{}},
		{"minimize-routing", mapper.Options{Objective: mapper.MinimizeRouting}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				res, err := mapper.Map(ctx, g, mg, cfg.opts)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if res.Mapping != nil {
					b.ReportMetric(float64(res.Mapping.RoutingCost()), "routing-cost")
				}
			}
		})
	}
}

func mustMRRG(b *testing.B, spec arch.GridSpec) *mrrg.Graph {
	b.Helper()
	a, err := arch.Grid(spec)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		b.Fatal(err)
	}
	return mg
}
