package mapper

import (
	"math"
	"runtime"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
)

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdStampReservation: a fresh template's first stamp has no size
// hints, so it reserves the model from the stamp's own exact variable
// count and its constraint estimate. It must allocate little more than
// a warm re-stamp of the same template, which reserves from the first
// stamp's recorded sizes (the extra is the stamper's pooled scratch).
// TotalAlloc is process-wide, so each figure is the least of three
// tries: a goroutine another test left running can only add to it.
func TestColdStampReservation(t *testing.T) {
	spec := arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Contexts: 1}
	a, mg := gridAt(t, spec, 1)
	for _, kernel := range []string{"mult_10", "extreme"} {
		coldBytes, warmBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			tmpl, err := NewTemplate(bench.MustGet(kernel), a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var cold, warm *formulation
			coldBytes = min(coldBytes, allocBytes(func() { cold, err = tmpl.stamp(mg) }))
			if err != nil {
				t.Fatal(err)
			}
			warmBytes = min(warmBytes, allocBytes(func() { warm, err = tmpl.stamp(mg) }))
			if err != nil {
				t.Fatal(err)
			}
			if cold.model == nil || warm.model == nil {
				t.Fatalf("%s: no model (%s)", kernel, cold.infeasible)
			}
			if n := cold.model.NumVars(); cold.countedVars != n || warm.countedVars != n {
				t.Fatalf("%s: counted %d (cold) and %d (warm) variables before creating %d",
					kernel, cold.countedVars, warm.countedVars, n)
			}
		}
		ratio := float64(coldBytes) / float64(warmBytes)
		t.Logf("%s: cold stamp %.1f MB, warm %.1f MB (%.2fx)", kernel, float64(coldBytes)/1e6, float64(warmBytes)/1e6, ratio)
		if ratio > 1.3 {
			t.Errorf("%s: cold stamp allocated %.2fx a warm re-stamp (%d vs %d bytes), want <= 1.3x",
				kernel, ratio, coldBytes, warmBytes)
		}
	}
}

// TestCountedVarsExact: the variable count worked out before createVars
// is exact with pruning on or off; with symmetry on, the model adds
// exactly its SE aux variables on top.
func TestCountedVarsExact(t *testing.T) {
	_, mg := gridAt(t, artifactArch, 2)
	for _, kernel := range []string{"accum", "mac", "2x2-f"} {
		for _, opts := range []Options{{}, {DisablePruning: true}, {Symmetry: SymmetryOn}, {Objective: MinimizeRouting}} {
			tmpl, err := NewTemplate(bench.MustGet(kernel), mg.Arch, opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := tmpl.stamp(mg)
			if err != nil || f.model == nil {
				t.Fatalf("%s: no model (%v %s)", kernel, err, f.infeasible)
			}
			aux := 0
			for v := 0; v < f.model.NumVars(); v++ {
				if f.model.VarKey(ilp.Var(v)).Prefix == "SE" {
					aux++
				}
			}
			if f.countedVars+aux != f.model.NumVars() {
				t.Errorf("%s pruning-off=%v symmetry=%s: counted %d variables, model has %d (%d aux)",
					kernel, opts.DisablePruning, opts.Symmetry, f.countedVars, f.model.NumVars(), aux)
			}
		}
	}
}
