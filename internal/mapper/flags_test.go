package mapper

import (
	"testing"

	"cgramap/internal/budget"
)

// TestSolveFlagsOptions: every binary's solve flags mean the same
// thing. Negative workers are refused, 0 workers takes the whole
// budget, an artifact cache size <= 0 disables the cache, the symmetry
// flag parses like ParseSymmetryMode, and the seed passes through.
func TestSolveFlagsOptions(t *testing.T) {
	for _, w := range []int{-1, -3} {
		if _, err := (SolveFlags{Mapper: Options{Workers: w}}).Options(); err == nil {
			t.Errorf("workers %d accepted", w)
		}
	}
	for _, n := range []int{0, -1} {
		opts, err := SolveFlags{ArtifactCache: n}.Options()
		if err != nil {
			t.Fatal(err)
		}
		if opts.Artifacts != nil {
			t.Errorf("artifact cache %d: cache enabled, want disabled", n)
		}
	}
	var sf SolveFlags
	if err := sf.Mapper.Symmetry.Set("on"); err != nil {
		t.Fatal(err)
	}
	sf.Mapper.Seed, sf.ArtifactCache = 5, 2
	opts, err := sf.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Artifacts == nil || opts.Seed != 5 || opts.Symmetry != SymmetryOn {
		t.Errorf("options %+v: want a cache, seed 5 and symmetry on", opts)
	}
	if opts.Workers != budget.Global().Size() {
		t.Errorf("workers 0 resolved to %d, want the budget size %d", opts.Workers, budget.Global().Size())
	}
	if err := sf.Mapper.Symmetry.Set("maybe"); err == nil || sf.Mapper.Symmetry != SymmetryOn {
		t.Errorf("bad symmetry flag: %v, mode now %v; want an error and the mode kept", err, sf.Mapper.Symmetry)
	}
}

func TestParseObjective(t *testing.T) {
	for in, want := range map[string]ObjectiveMode{"": Feasibility, "feasibility": Feasibility, "routing": MinimizeRouting} {
		got, err := ParseObjective(in)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseObjective("speed"); err == nil {
		t.Error("ParseObjective(speed) accepted")
	}
	for _, m := range []ObjectiveMode{Feasibility, MinimizeRouting} {
		if back, err := ParseObjective(m.String()); err != nil || back != m {
			t.Errorf("%v does not round-trip: %v, %v", m, back, err)
		}
	}
}
