package mapper

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
)

// swapKernel builds a DFG with a clean value symmetry: two independent
// leaf inputs feeding one commutative multiply, plus a distinct anchor
// operation so the swap pair stays clear of orbit fixing.
func swapKernel(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New("swapk")
	x := g.In("x")
	a := g.In("a")
	b := g.In("b")
	m := g.Mul("m", a, b)
	s := g.Add("s", x, m)
	g.Out("y", s)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func homoGrid(t *testing.T, contexts int) *arch.Arch {
	t.Helper()
	a, err := arch.Grid(arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal,
		Homogeneous: true, Contexts: contexts})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestParseSymmetryMode(t *testing.T) {
	cases := map[string]SymmetryMode{
		"": SymmetryAuto, "auto": SymmetryAuto,
		"on": SymmetryOn, "true": SymmetryOn, "1": SymmetryOn,
		"off": SymmetryOff, "false": SymmetryOff, "0": SymmetryOff,
	}
	for in, want := range cases {
		got, err := ParseSymmetryMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSymmetryMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSymmetryMode("maybe"); err == nil {
		t.Error("ParseSymmetryMode(maybe) accepted")
	}
	for _, m := range []SymmetryMode{SymmetryAuto, SymmetryOn, SymmetryOff} {
		back, err := ParseSymmetryMode(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v -> %q -> %v, %v", m, m.String(), back, err)
		}
	}
}

// TestFindValueSwaps checks the operand-symmetry detector directly.
func TestFindValueSwaps(t *testing.T) {
	g := swapKernel(t)
	aID := g.OpByName("a").ID
	bID := g.OpByName("b").ID
	pairs := findValueSwaps(g, g.Ops()[0].ID)
	if len(pairs) != 1 || pairs[0] != [2]int{aID, bID} {
		t.Fatalf("pairs = %v, want [[%d %d]]", pairs, aID, bID)
	}
	// With the anchor inside the candidate pair, the pair must vanish.
	if got := findValueSwaps(g, aID); len(got) != 0 {
		t.Fatalf("anchor-containing pair not excluded: %v", got)
	}
	// Non-commutative consumers produce no pairs.
	g2 := dfg.New("sub")
	a := g2.In("a")
	b := g2.In("b")
	g2.Out("y", g2.Sub("d", a, b))
	if got := findValueSwaps(g2, g2.Ops()[0].ID); len(got) != 0 {
		t.Fatalf("sub operands treated as interchangeable: %v", got)
	}
}

// TestSymmetryConstraintGroups: with Symmetry on, the model carries the
// three symmetry constraint groups; with it off, none — and the
// formulation variables shared by both modes keep identical numbering
// (aux variables are strictly a tail).
func TestSymmetryConstraintGroups(t *testing.T) {
	g := swapKernel(t)
	a := homoGrid(t, 1)
	mg, err := mrrg.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	on, _, err := BuildModel(g, mg, Options{Symmetry: SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := BuildModel(g, mg, Options{Symmetry: SymmetryOff})
	if err != nil {
		t.Fatal(err)
	}
	if on == nil || off == nil {
		t.Fatal("instance unexpectedly infeasible at build time")
	}
	onStats, offStats := on.Stats(), off.Stats()
	for _, group := range []string{"sym-orbit", "sym-lex", "sym-swap"} {
		if onStats.ByName[group] == 0 {
			t.Errorf("symmetry-on model lacks %q constraints (groups: %v)", group, onStats.ByName)
		}
		if offStats.ByName[group] != 0 {
			t.Errorf("symmetry-off model has %d %q constraints", offStats.ByName[group], group)
		}
	}
	// The homogeneous 4x4 grid has three verified generators, so at
	// least three lex chains must appear (one x_0 <= y_0 head each).
	if onStats.ByName["sym-lex"] < 3 {
		t.Errorf("sym-lex constraints = %d, want >= 3 (one chain per generator)", onStats.ByName["sym-lex"])
	}
	if off.NumVars() >= on.NumVars() {
		t.Fatalf("no aux variables added: off %d vars, on %d", off.NumVars(), on.NumVars())
	}
	for i := 0; i < off.NumVars(); i++ {
		if off.VarName(ilp.Var(i)) != on.VarName(ilp.Var(i)) {
			t.Fatalf("var %d renamed by symmetry emission: %q vs %q",
				i, off.VarName(ilp.Var(i)), on.VarName(ilp.Var(i)))
		}
	}
	// Aux tail uses the stable "SE" composite prefix, so aux variables
	// have the same VarKey at every II.
	sawAux := false
	for i := off.NumVars(); i < on.NumVars(); i++ {
		if strings.HasPrefix(on.VarName(ilp.Var(i)), "SE[") {
			sawAux = true
		}
	}
	if !sawAux {
		t.Error("no SE-prefixed aux variables in the symmetry tail")
	}
}

// TestSymmetryStampedMatchesScratch extends the PR 9 byte-determinism
// guarantee to symmetry emission: a model stamped from a cached template
// (after serving another II first) is byte-identical to a scratch build.
func TestSymmetryStampedMatchesScratch(t *testing.T) {
	g := bench.MustGet("mac")
	cache := NewArtifactCache(8)
	lp := func(opts Options, contexts int) string {
		a := homoGrid(t, contexts)
		mg, err := mrrg.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		m, reason, err := BuildModel(g, mg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			t.Fatalf("infeasible at build time: %s", reason)
		}
		var sb strings.Builder
		if err := m.WriteLP(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	// Warm the cached template at II=1, then stamp II=2 from it.
	lp(Options{Symmetry: SymmetryOn, Artifacts: cache}, 1)
	stamped := lp(Options{Symmetry: SymmetryOn, Artifacts: cache}, 2)
	scratch := lp(Options{Symmetry: SymmetryOn}, 2)
	if stamped != scratch {
		t.Fatal("stamped symmetry model differs from scratch build")
	}
	// The template key must separate the modes: an off-build through the
	// same cache may not reuse the symmetry template.
	offLP := lp(Options{Symmetry: SymmetryOff, Artifacts: cache}, 2)
	if offLP == stamped {
		t.Fatal("symmetry-off build returned the symmetry-on model")
	}
}

// TestMapSymmetryOn solves with the constraints active: a feasible
// instance still verifies, an infeasible one is still proven infeasible.
func TestMapSymmetryOn(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	g := swapKernel(t)
	mg, err := mrrg.Generate(homoGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(ctx, g, mg, Options{Symmetry: SymmetryOn, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("status %v, want feasible", res.Status)
	}
	if err := res.Mapping.Verify(); err != nil {
		t.Fatal(err)
	}

	// mult_10 needs II=2 on the heterogeneous grid: at a single context
	// the instance is infeasible, and must stay provably so.
	hetero, err := arch.Grid(arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal,
		Homogeneous: false, Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	hmg, err := mrrg.Generate(hetero)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := Map(ctx, bench.MustGet("mult_10"), hmg, Options{Symmetry: SymmetryOn, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Status != ilp.Infeasible {
		t.Fatalf("mult_10 at II=1: status %v, want infeasible", inf.Status)
	}
}

// equivKernels is the fast kernel subset the equivalence test checks on
// every `go test` run.
var equivKernels = []string{"accum", "mac", "2x2-f", "2x2-p", "mult_10", "exp_4"}

// TestMapAutoSymmetryEquivalence is the contract symmetry breaking lives
// by: for every kernel, MapAuto with symmetry on must report the same
// minimal II and per-II status trajectory as with it off. Breaking
// removes symmetric duplicates from the search space, never a whole
// solution orbit, so only solve speed may change. The CI equivalence job
// sets CGRAMAP_SYM_EQUIV_ALL=1 to sweep the full Table 1 set.
func TestMapAutoSymmetryEquivalence(t *testing.T) {
	kernels := equivKernels
	budget := 4 * time.Minute
	if os.Getenv("CGRAMAP_SYM_EQUIV_ALL") != "" {
		kernels = bench.Names()
		budget = 45 * time.Second
	}
	a, err := arch.Grid(arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal,
		Homogeneous: false, Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range kernels {
		name := name
		t.Run(name, func(t *testing.T) {
			g := bench.MustGet(name)
			octx, ocancel := context.WithTimeout(context.Background(), budget)
			defer ocancel()
			off, err := MapAuto(octx, g, a, 4, Options{Seed: 1, Symmetry: SymmetryOff})
			if err != nil {
				t.Fatal(err)
			}
			if off.Status == ilp.Unknown {
				t.Skipf("symmetry-off ladder undecided within %v; no ground truth", budget)
			}
			sctx, scancel := context.WithTimeout(context.Background(), 4*budget)
			defer scancel()
			sym, err := MapAuto(sctx, g, a, 4, Options{Seed: 1, Symmetry: SymmetryOn})
			if err != nil {
				t.Fatal(err)
			}
			if sym.II != off.II || sym.Status != off.Status {
				t.Fatalf("symmetry II=%d status=%v, plain II=%d status=%v",
					sym.II, sym.Status, off.II, off.Status)
			}
			if len(sym.Tried) != len(off.Tried) {
				t.Fatalf("symmetry tried %v, plain tried %v", sym.Tried, off.Tried)
			}
			for i := range sym.Tried {
				if sym.Tried[i] != off.Tried[i] {
					t.Fatalf("II rung %d: symmetry %v, plain %v (full: %v vs %v)",
						i, sym.Tried[i], off.Tried[i], sym.Tried, off.Tried)
				}
			}
			if sym.Feasible() {
				if err := sym.Mapping.Verify(); err != nil {
					t.Fatalf("symmetry mapping invalid: %v", err)
				}
			}
		})
	}
}
