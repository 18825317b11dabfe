package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
	"cgramap/internal/sim"
)

func grid(rows, cols int, homo, diag bool) arch.GridSpec {
	ic := arch.Orthogonal
	if diag {
		ic = arch.Diagonal
	}
	return arch.GridSpec{Rows: rows, Cols: cols, Homogeneous: homo, Interconnect: ic, Contexts: 1}
}

// ladderPanel mixes ladders that must refute II=1 before II=2 maps (mac
// on three 3x3 variants, exp_4 on two) with single-rung SAT ladders. Two
// heavy-tailed instances are left out because either alone spreads a
// run's throughput across seeds by more than the bound: mac on homo-diag
// 3x3 (its II=1 refutation takes 3-8 s depending on the seed) and mult_10
// on hetero-diag 4x4 (its single SAT rung takes 0.16-2.0 s). The slow mac
// ladders are a sixth of the items and half the panel takes 0.15-0.35 s,
// so both the median and the p75 tail fall inside that dense middle
// group, where a run's ~100 items pin a percentile down; on the sparse
// slopes of the mac ladders' spread they did not.
var ladderPanel = []panelItem{
	{"mac", grid(3, 3, false, true)},
	{"mac", grid(3, 3, true, false)},
	{"mac", grid(3, 3, false, false)},
	{"exp_4", grid(3, 3, false, true)}, // warmupItem
	{"exp_4", grid(3, 3, false, false)},
	{"add_10", grid(3, 3, true, true)},
	{"add_10", grid(3, 3, false, true)},
	{"add_10", grid(3, 3, true, false)},
	{"add_10", grid(3, 3, false, false)},
	{"tay_4", grid(3, 3, true, true)},
	{"tay_4", grid(3, 3, false, true)},
	{"mult_10", grid(3, 3, false, true)},
	{"2x2-f", grid(3, 3, true, true)},
	{"2x2-f", grid(3, 3, false, false)},
	{"2x2-p", grid(3, 3, true, true)},
	{"2x2-p", grid(3, 3, false, false)},
	{"accum", grid(3, 3, false, true)},
	{"accum", grid(3, 3, false, false)},
}

// warmupItem indexes the panel item set-up maps once with a fixed seed.
const warmupItem = 3

const (
	ladderMaxII = 4
	// ladderBudget is a compiler's time limit per ladder, about twice the
	// slowest of 40 seeds of every panel item (mac on homo-orth 3x3, 1.8 s
	// on a 2-core machine). CDCL refutation is heavy-tailed: one seed of
	// exp_4 on hetero-diag 3x3, a 160 ms ladder at the median, took 16 s
	// to refute II=1. Within the budget such a stall costs at most 3 s of
	// a run and counts as undecided, where it shows in decided_frac.
	ladderBudget = 3 * time.Second
	// artifactEntries is the cgramap CLI's default artifact-cache size.
	artifactEntries = 16
	// minItems keeps every run's tail percentile defined.
	minItems = 2 * tailMinBeyond
)

// ladderTailP is the ladder's tail percentile: p75 of 160-200 items a
// run, one step below the rule's p90. p90 falls among a run's 20-odd
// samples of the slow mac ladders, too few to pin it down.
const ladderTailP = 75

// ladderSetup builds the panel's DFGs and fabrics and warms the mapper
// with one fixed-seed ladder that refutes a rung and maps the next.
func ladderSetup() (*panel, error) {
	in, err := loadPanel(ladderPanel)
	if err != nil {
		return nil, err
	}
	_, err = mapper.MapAuto(context.Background(), in.graphs[warmupItem], in.archs[warmupItem], ladderMaxII, ladderOptions(1))
	return in, err
}

// ladderOptions are the cgramap CLI defaults with one sequential worker:
// symmetry auto (on for ladders), a fresh artifact cache, no incremental
// sessions.
func ladderOptions(seed int64) mapper.Options {
	return mapper.Options{Workers: 1, Seed: seed, Artifacts: mapper.NewArtifactCache(artifactEntries)}
}

// ladderRun is one measured ladder.
type ladderRun struct {
	item    int
	seed    int64
	latency time.Duration
	auto    *mapper.AutoResult
	err     error
	art     mapper.ArtifactStats
	decided bool // proven minimal II within ladderBudget
}

func runLadder(e *env) (*report, error) {
	rep := newReport()
	budget := e.seconds
	if e.trace {
		budget /= 2 // the replay of the same items takes the other half
	}
	st := &setupTimer[*panel]{fn: ladderSetup, budget: budget}
	in, err := st.take()
	if err != nil {
		return nil, fmt.Errorf("ladder set-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs, wall, cpu, peaks, err := ladderPhase(e, in, rep, budget, st)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rep.set("setup_s", st.median(), "s")

	var lats []float64
	for _, r := range runs {
		lats = append(lats, ms(r.latency))
	}
	if !e.trace {
		e.logf("ladder: %d ladders, %d undecided within %v", rep.attempted, rep.timedOut, ladderBudget)
		endToEndMetrics(e, rep, lats, wall, cpu, peaks, ladderTailP)
		return rep, nil
	}

	runtimeStats(rep, &before, &after, len(runs))
	var hits, lookups, mhits, mlookups int64
	for _, r := range runs {
		hits += r.art.TemplateHits
		lookups += r.art.TemplateHits + r.art.TemplateMisses
		mhits += r.art.MRRG.Hits
		mlookups += r.art.MRRG.Hits + r.art.MRRG.Misses
	}
	if lookups > 0 {
		rep.set("artifact.template_hit_frac", float64(hits)/float64(lookups), "ratio")
	}
	if mlookups > 0 {
		rep.set("artifact.mrrg_hit_frac", float64(mhits)/float64(mlookups), "ratio")
	}
	// A ladder that ran out of budget stopped at a point set by the
	// clock, which a replay cannot reproduce; only decided ones replay.
	l := newLayers(e.tr)
	var traced time.Duration
	untraced := wall
	for i, r := range runs {
		if !r.decided {
			untraced -= r.latency
			continue
		}
		d, err := replayLadder(l, i, in, r)
		if err != nil {
			return nil, err
		}
		traced += d
		l.items++
	}
	l.metrics(rep)
	overhead(rep, traced, untraced, l.items)
	return rep, nil
}

// ladderPhase maps whole passes over the panel, one ladder at a time,
// each pass in its own seeded order, until the passes' wall time reaches
// budget; set-up samples fall between passes.
// Whole passes keep the item mix of every run the same. One ladder at a
// time keeps the figures independent of how the host places the
// machine's two vCPUs, which moved a two-wide run's throughput by a
// third between otherwise identical runs. Answers are checked after the
// timed phase.
func ladderPhase(e *env, in *panel, rep *report, budget time.Duration, st *setupTimer[*panel]) (runs []ladderRun, wall, cpu time.Duration, peaks passPeaks, err error) {
	for pass := 0; wall < budget || len(runs) < minItems; pass++ {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, 0, 0, nil, err
		}
		start, c0 := time.Now(), selfCPU()
		for _, idx := range rand.New(rand.NewSource(deriveSeed(e.seed, 1, pass))).Perm(len(ladderPanel)) {
			seed := deriveSeed(e.seed, 2, pass*len(ladderPanel)+idx)
			opts := ladderOptions(seed)
			ctx, cancel := context.WithTimeout(context.Background(), ladderBudget)
			t0 := time.Now()
			auto, err := mapper.MapAuto(ctx, in.graphs[idx], in.archs[idx], ladderMaxII, opts)
			runs = append(runs, ladderRun{item: idx, seed: seed, latency: time.Since(t0), auto: auto,
				err: err, art: opts.Artifacts.Stats()})
			cancel()
		}
		wall += time.Since(start)
		cpu += selfCPU() - c0
		if err := peaks.end(os.Getpid()); err != nil {
			return nil, 0, 0, nil, err
		}
		if err := st.due(wall); err != nil {
			return nil, 0, 0, nil, fmt.Errorf("ladder set-up: %w", err)
		}
	}

	kept := runs[:0]
	for _, r := range runs {
		it := ladderPanel[r.item]
		if r.err != nil {
			rep.add(failedOp)
			e.logf("ladder %s: %v", it.key(), r.err)
			continue
		}
		o := checkLadder(e.golden, it, in.graphs[r.item], r.auto, rep)
		rep.add(o)
		r.decided = o == decided
		kept = append(kept, r)
	}
	return kept, wall, cpu, peaks, nil
}

// checkLadder classifies one ladder answer and records a wrong one: a
// proven minimal II that differs from the golden one, or a mapping that
// fails verification or simulation.
func checkLadder(gold *golden, it panelItem, g *dfg.Graph, auto *mapper.AutoResult, rep *report) outcome {
	want, ok := gold.Ladder[it.key()]
	if !ok {
		rep.wrongf("ladder %s: no golden minimal II", it.key())
		return failedOp
	}
	proven := auto.Status != ilp.Unknown
	for i, s := range auto.Tried {
		if s == ilp.Unknown || (i < len(auto.Tried)-1 && s != ilp.Infeasible) {
			proven = false
		}
	}
	if auto.Feasible() {
		if err := checkMapping(auto.Mapping, g); err != nil {
			rep.wrongf("ladder %s at II=%d: %v", it.key(), auto.II, err)
		}
		if auto.II < want || (proven && auto.II != want) {
			rep.wrongf("ladder %s: minimal II %d, golden %d (tried %v)", it.key(), auto.II, want, auto.Tried)
		}
	} else if auto.Status == ilp.Infeasible {
		rep.wrongf("ladder %s: proven unmappable up to II=%d, golden minimal II %d", it.key(), ladderMaxII, want)
	}
	if !proven {
		return timedOut
	}
	return decided
}

// checkMapping re-verifies a mapping and simulates it against direct
// DFG evaluation (acyclic kernels; the simulator settles only those).
func checkMapping(m *mapper.Mapping, g *dfg.Graph) error {
	if m == nil {
		return fmt.Errorf("feasible answer without a mapping")
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if g.Acyclic() {
		if err := sim.Validate(m, sim.DefaultInputs(g, 7), nil); err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
	}
	return nil
}

// replayLadder repeats one measured ladder one layer call at a time,
// the way MapAuto runs it with one worker, and checks that every rung's
// status and the winning rung's solver counters equal the measured run.
func replayLadder(l *layers, i int, in *panel, r ladderRun) (time.Duration, error) {
	it, g := ladderPanel[r.item], in.graphs[r.item]
	ctx, cancel := context.WithTimeout(context.Background(), ladderBudget)
	defer cancel()
	root := l.tr.begin("item", i, -1)

	var a *arch.Arch
	var err error
	l.tr.do("arch.Grid", i, root, func() { a, err = arch.Grid(it.Spec) })
	if err != nil {
		return 0, err
	}
	var syms *arch.Symmetries
	l.tr.do("arch.Discover", i, root, func() { syms = arch.Discover(a) })
	l.generators += len(syms.Gens)
	single := *a
	single.Contexts = 1
	mg1, err := l.generate(i, root, func() (*mrrg.Graph, error) { return mrrg.Generate(&single) })
	if err != nil {
		return 0, err
	}
	for gi := range syms.Gens {
		l.tr.do("mrrg.LiftAutomorphism", i, root, func() { _, err = mrrg.LiftAutomorphism(mg1, &syms.Gens[gi]) })
		if err != nil {
			return 0, err
		}
	}
	var mii int
	l.tr.do("sched.MII", i, root, func() { mii, err = sched.MII(g, mg1) })
	if err != nil {
		return 0, err
	}
	opts := ladderOptions(r.seed)
	opts.Symmetry = mapper.SymmetryOn // what MapAuto resolves auto to
	var t *mapper.Template
	l.tr.do("mapper.NewTemplate", i, root, func() { t, err = mapper.NewTemplate(g, a, opts) })
	if err != nil {
		return 0, err
	}

	var tried []ilp.Status
	var win *ilp.Solution
	ii := 0
	for rung := mii; rung <= ladderMaxII && ii == 0; rung++ {
		mg := mg1
		if rung != 1 {
			attempt := *a
			attempt.Contexts = rung
			if mg, err = l.generate(i, root, func() (*mrrg.Graph, error) { return mrrg.Generate(&attempt) }); err != nil {
				tried = append(tried, ilp.Infeasible) // FU IIs do not divide this context count
				continue
			}
		}
		res, sol, err := l.mapRung(ctx, i, root, g, t, mg, len(tried) == 0, opts, r.seed)
		if err != nil {
			return 0, err
		}
		tried = append(tried, res.Status)
		if res.Feasible() {
			ii, win = rung, sol
		}
	}
	d := l.tr.end(root)
	if !reflect.DeepEqual(tried, r.auto.Tried) || ii != r.auto.II || win == nil || !reflect.DeepEqual(win.Stats, r.auto.SolverStats) {
		return 0, fmt.Errorf("ladder replay of %s seed %d diverged: rungs %v II %d, measured %v II %d",
			it.key(), r.seed, tried, ii, r.auto.Tried, r.auto.II)
	}
	return d, nil
}
