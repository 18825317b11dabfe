package ilp

import (
	"errors"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lpUnsafe is the sanitisation rule the LP writer implements without
// regexp: every rune outside [A-Za-z0-9_.] becomes one '_'.
var lpUnsafe = regexp.MustCompile(`[^A-Za-z0-9_.]`)

// FuzzLPName checks the LP name sanitiser against the regexp rule for
// arbitrary strings, multi-byte runes and invalid UTF-8 included, both
// alone and split across the three parts of a composite name.
func FuzzLPName(f *testing.F) {
	for _, s := range []string{
		"F[c0.pe/1,op:2]", "F[c0.pe/1;op:2]", "x", "",
		"R[c1.alu_3.out,v:7]", "héllo wörld", "\xff\xfe", "a\xe2\x82", "\xe2\x82\xac\x80", "日本語",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := lpUnsafe.ReplaceAllString(s, "_")
		if got := string(appendLPSafe(nil, s)); got != want {
			t.Fatalf("appendLPSafe(%q) = %q, want %q", s, got, want)
		}
		// Composite parts split anywhere, even inside a UTF-8 sequence.
		i, j := len(s)/3, 2*len(s)/3
		m := NewModel("fuzz")
		m.Binary(s)
		m.BinaryComposite(s[:i], s[i:j], s[j:], len(s)%3-1)
		ns := m.lpNames()
		for v := 0; v < m.NumVars(); v++ {
			want := lpUnsafe.ReplaceAllString(m.VarName(Var(v)), "_") + "_v" + strconv.Itoa(v)
			if got := string(ns.appendName(nil, Var(v))); got != want {
				t.Fatalf("name of %q = %q, want %q", m.VarName(Var(v)), got, want)
			}
		}
	})
}

// TestWriteLPUndeclaredVar: a term on a variable the model never
// declared is written under VarName's "x<index>" name, sanitised.
func TestWriteLPUndeclaredVar(t *testing.T) {
	m := NewModel("bad")
	m.Binary("y")
	m.AddLE("c", []Term{{Var: -3, Coef: 2}, {Var: 5, Coef: -1}}, 1)
	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	if want := " c0: + 2 x_3_v-3 - x5_v5 <= 1\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("LP output missing %q:\n%s", want, sb.String())
	}
}

// lpModel builds an n-variable model with composite names, mixed
// coefficients and an objective.
func lpModel(n int) *Model {
	m := NewModel("alloc")
	for i := 0; i < n; i++ {
		m.BinaryComposite("R", "c0.pe_"+strconv.Itoa(i), "val:1", i%3-1)
	}
	for i := 0; i+2 < n; i++ {
		m.AddLE("row", []Term{{Var(i), 1}, {Var(i + 1), -1}, {Var(i + 2), 3}, {Var(i), -4}}, 1)
	}
	m.Objective = Sum(0, Var(n-1))
	return m
}

// TestWriteLPAllocs: the writer allocates a fixed handful of buffers
// per call (name table, offsets, output buffer), independent of the
// model's size — no allocation per variable or per term.
func TestWriteLPAllocs(t *testing.T) {
	small, large := lpModel(100), lpModel(1000)
	allocs := func(m *Model) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := m.WriteLP(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	as, al := allocs(small), allocs(large)
	if as != al || al > 4 {
		t.Fatalf("WriteLP allocations: %v for 100 variables, %v for 1000; want the same small constant", as, al)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	writes int
}

var errDiskFull = errors.New("no space left on device")

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// shortWriter reports short writes without an error.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

// TestWriteLPWriteErrors: the first write error is returned and no
// further writes are attempted; a short write without an error is
// io.ErrShortWrite, as with bufio.
func TestWriteLPWriteErrors(t *testing.T) {
	m := lpModel(5000)
	w := &failAfter{n: 1000}
	if err := m.WriteLP(w); err != errDiskFull {
		t.Fatalf("WriteLP error = %v, want %v", err, errDiskFull)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes after the first error, want none", w.writes-1)
	}
	if err := m.WriteLP(shortWriter{}); err != io.ErrShortWrite {
		t.Fatalf("WriteLP error = %v, want io.ErrShortWrite", err)
	}
}
