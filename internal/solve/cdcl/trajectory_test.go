package cdcl

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cgramap/internal/ilp"
)

// cardHeavy builds a seeded random model dominated by at-most-k cards
// with 3 <= k <= 5 (so neither the unit-fact nor the plain-clause
// shortcut of addAtMost applies), a few at-least constraints, and an
// objective that drives the optimisation loop through several
// strengthened bounds.
func cardHeavy(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	const n = 60
	m := ilp.NewModel(fmt.Sprintf("cards-%d", seed))
	vars := make([]ilp.Var, n)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
	}
	pick := func(size int) []ilp.Var {
		out := make([]ilp.Var, size)
		for i, p := range rng.Perm(n)[:size] {
			out[i] = vars[p]
		}
		return out
	}
	for c := 0; c < 45; c++ {
		size := 8 + rng.Intn(7)
		m.AddLE("atmost", ilp.Sum(pick(size)...), 3+rng.Intn(3))
	}
	for c := 0; c < 35; c++ {
		size := 4 + rng.Intn(5)
		m.AddGE("atleast", ilp.Sum(pick(size)...), 1+rng.Intn(2))
	}
	m.Objective = ilp.Sum(vars...)
	return m
}

// TestSeededTrajectoryPinned pins the exact search trajectory of seeded
// solves: any change to propagation, conflict analysis, backjumping,
// restarts or branching that alters the search shows up here as a
// counter mismatch, even when the verdict stays the same. A deliberate
// change to the search must update these figures and say why.
func TestSeededTrajectoryPinned(t *testing.T) {
	cases := []struct {
		model                              *ilp.Model
		seed                               int64
		status                             ilp.Status
		conflicts, decisions, propagations int64
	}{
		{pigeonhole(6, 5), 1, ilp.Infeasible, 155, 182, 1826},
		{pigeonhole(6, 5), 2, ilp.Infeasible, 136, 161, 1734},
		{cardHeavy(7), 1, ilp.Optimal, 5887, 7266, 70593},
		{cardHeavy(7), 2, ilp.Optimal, 5509, 6999, 66966},
	}
	for _, c := range cases {
		sol, err := (&Engine{Seed: c.seed}).Solve(context.Background(), c.model)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.model.Name, c.seed, err)
		}
		got := [3]int64{sol.Stats["conflicts"], sol.Stats["decisions"], sol.Stats["propagations"]}
		want := [3]int64{c.conflicts, c.decisions, c.propagations}
		if sol.Status != c.status || got != want {
			t.Errorf("%s seed %d: status %v, (conflicts, decisions, propagations) = %v; want %v, %v",
				c.model.Name, c.seed, sol.Status, got, c.status, want)
		}
	}
}
