package mapper

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/mrrg"
)

// hashCounter is an io.Writer that hashes and counts what it is given.
type hashCounter struct {
	h hash.Hash
	n int64
}

func (w *hashCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// TestLPDigestsPinned fixes the exact bytes WriteLP produces for a set
// of formulations: 8x8 fabrics at one and three contexts, a symmetry-on
// model (its SE aux variables) and a MinimizeRouting model (its
// objective row). The digests were recorded from the fmt/regexp LP
// writer this package's emitter replaced, so any change to LP names,
// number formatting, variable numbering or constraint order shows here.
func TestLPDigestsPinned(t *testing.T) {
	g8 := func(homo bool, ic arch.Interconnect, contexts int) arch.GridSpec {
		return arch.GridSpec{Rows: 8, Cols: 8, Homogeneous: homo, Interconnect: ic, Contexts: contexts}
	}
	for _, c := range []struct {
		kernel string
		spec   arch.GridSpec
		opts   Options
		size   int64
		sha256 string
	}{
		{"extreme", g8(false, arch.Diagonal, 1), Options{}, 25394331, "5e75a7b1a692394f3cef91947f14ce54f6ceb8b26cc4d3c800a6ee39cba7b593"},
		{"mult_10", g8(false, arch.Diagonal, 1), Options{}, 9270534, "1e09d790878521c8199ce9481e31b9323e8a0d10e156250a5fa95768e8733e2c"},
		{"2x2-f", g8(true, arch.Diagonal, 1), Options{}, 7356917, "8cf594417cced7688c221e42f0ca3dc993d117865a48b403b4d0a73604dce484"},
		{"accum", g8(true, arch.Orthogonal, 1), Options{}, 9017933, "9c7e49a0535b2341eccab9d9c5a9ca23fa75e3258f28d6421dc1a30cb82e941c"},
		{"2x2-p", g8(true, arch.Orthogonal, 3), Options{}, 19533515, "f3fd1603dcb3c94915325d7a8ec8e60ef2e09be8d9bcded3602740eee1c88e16"},
		{"mac", arch.GridSpec{Rows: 3, Cols: 3, Homogeneous: true, Interconnect: arch.Diagonal, Contexts: 1},
			Options{Symmetry: SymmetryOn}, 1109702, "170cfad2ebb47d9ed7d4058e742af7dc253bc02827fe9d2934424e3f9bfaee2a"},
		{"exp_4", arch.GridSpec{Rows: 4, Cols: 4, Homogeneous: true, Interconnect: arch.Orthogonal, Contexts: 2},
			Options{Symmetry: SymmetryOn, Objective: MinimizeRouting}, 4854964, "d0453dfaceea420cbcacbed582292093f02ba7ad0b12fa98a82dae83942a83aa"},
	} {
		a, err := arch.Grid(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := mrrg.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		m, reason, err := BuildModel(bench.MustGet(c.kernel), mg, c.opts)
		if err != nil || m == nil {
			t.Fatalf("%s on %s: no model (%v %s)", c.kernel, c.spec.Name(), err, reason)
		}
		w := hashCounter{h: sha256.New()}
		if err := m.WriteLP(&w); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(w.h.Sum(nil)); w.n != c.size || got != c.sha256 {
			t.Errorf("%s on %s (symmetry %s, objective %d): LP is %d bytes, sha256 %s; pinned %d bytes, %s",
				c.kernel, c.spec.Name(), c.opts.Symmetry, c.opts.Objective, w.n, got, c.size, c.sha256)
		}
	}
}
