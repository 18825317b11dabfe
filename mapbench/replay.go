package main

import (
	"context"
	"runtime"
	"time"

	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/cdcl"
)

// layers accumulates what a traced replay counts at the layer
// boundaries, alongside the spans it times.
type layers struct {
	tr    *tracer
	items int

	genCalls, genNodes    int
	generators            int
	stampCalls            int
	firstStamps           int
	firstStamp, warmStamp time.Duration
	vars, cons            int64
	allocBytes            uint64
	presolveDecided       int

	refute, sat, timeout time.Duration
	counters             map[string]int64
	rungs, refuted       int
	decodeVerify         time.Duration

	lpBytes int64
}

func newLayers(tr *tracer) *layers { return &layers{tr: tr, counters: map[string]int64{}} }

// generate times mrrg.Generate.
func (l *layers) generate(item, parent int, gen func() (*mrrg.Graph, error)) (*mrrg.Graph, error) {
	var mg *mrrg.Graph
	var err error
	l.tr.do("mrrg.Generate", item, parent, func() { mg, err = gen() })
	if err == nil {
		l.genCalls++
		l.genNodes += len(mg.Nodes)
	}
	return mg, err
}

// stamp times Template.BuildModel and its allocation (the MemStats delta
// around the call). first marks the template's first stamp.
func (l *layers) stamp(item, parent int, t *mapper.Template, mg *mrrg.Graph, first bool) (*ilp.Model, string, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.tr.begin("Template.BuildModel", item, parent)
	m, reason, err := t.BuildModel(mg)
	d := l.tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, "", err
	}
	l.stampCalls++
	if first {
		l.firstStamps++
		l.firstStamp += d
	} else {
		l.warmStamp += d
	}
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	if m != nil {
		l.vars += int64(m.NumVars())
		l.cons += int64(len(m.Constraints))
	}
	return m, reason, nil
}

// tracedSolver wraps the engine Map would pick (a seeded sequential CDCL
// engine) so each Solve is a span under the enclosing Map span, and its
// counters are summed over every rung.
type tracedSolver struct {
	l            *layers
	item, parent int
	inner        ilp.Solver
	last         *ilp.Solution
}

func (s *tracedSolver) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	id := s.l.tr.begin("cdcl.Solve", s.item, s.parent)
	sol, err := s.inner.Solve(ctx, m)
	d := s.l.tr.end(id)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Infeasible:
		s.l.refute += d
	case ilp.Unknown:
		s.l.timeout += d
	default:
		s.l.sat += d
	}
	for _, k := range []string{"conflicts", "propagations", "decisions", "restarts"} {
		s.l.counters[k] += sol.Stats[k]
	}
	s.last = sol
	return sol, nil
}

// mapRung replays one fixed-II attempt the way mapper.Map runs it inside
// MapAuto or a daemon job: stamp (timed separately, from the caller's
// template) and then Map with the traced solver. It returns Map's result
// and the solution the solver produced (nil when presolve decided).
func (l *layers) mapRung(ctx context.Context, item, parent int, g *dfg.Graph, t *mapper.Template, mg *mrrg.Graph,
	first bool, opts mapper.Options, seed int64) (*mapper.Result, *ilp.Solution, error) {
	if _, _, err := l.stamp(item, parent, t, mg, first); err != nil {
		return nil, nil, err
	}
	id := l.tr.begin("mapper.Map", item, parent)
	ts := &tracedSolver{l: l, item: item, parent: id, inner: cdcl.NewSeeded(seed)}
	opts.Solver = ts
	res, err := mapper.Map(ctx, g, mg, opts)
	wall := l.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	l.rungs++
	if res.Status == ilp.Infeasible {
		l.refuted++
	}
	if ts.last == nil && res.Vars == 0 && res.Status == ilp.Infeasible {
		l.presolveDecided++
	}
	l.decodeVerify += wall - res.BuildTime - res.SolveTime
	return res, ts.last, nil
}

// metrics turns the replay's spans and counters into per-layer metrics,
// per replayed item unless the name says otherwise.
func (l *layers) metrics(rep *report) {
	spans := l.tr.snapshot()
	self := selfTimes(spans)
	n := float64(max(l.items, 1))
	perItem := func(d time.Duration) float64 { return ms(d) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.set("trace.items", float64(l.items), "count")
	rep.set("mrrg.gen_ms", perItem(self["mrrg.Generate"]), "ms")
	rep.set("mrrg.nodes", ratio(float64(l.genNodes), float64(l.genCalls)), "count")
	rep.set("sym.discover_ms", perItem(self["arch.Discover"]), "ms")
	rep.set("sym.lift_ms", perItem(self["mrrg.LiftAutomorphism"]), "ms")
	rep.set("sym.generators", float64(l.generators)/n, "count")
	rep.set("sched.mii_ms", perItem(self["sched.MII"]), "ms")
	rep.set("presolve.decided", float64(l.presolveDecided), "count")
	rep.set("template.ms", perItem(self["mapper.NewTemplate"]), "ms")
	rep.set("stamp.ms", perItem(self["Template.BuildModel"]), "ms")
	rep.set("stamp.first_ms", ratio(ms(l.firstStamp), float64(l.firstStamps)), "ms")
	rep.set("stamp.warm_ms", ratio(ms(l.warmStamp), float64(l.stampCalls-l.firstStamps)), "ms")
	rep.set("stamp.vars", ratio(float64(l.vars), float64(l.stampCalls)), "count")
	rep.set("stamp.constraints", ratio(float64(l.cons), float64(l.stampCalls)), "count")
	rep.set("stamp.alloc_mb", ratio(float64(l.allocBytes)/1e6, float64(l.stampCalls)), "MB")
	rep.set("cdcl.refute_ms", perItem(l.refute), "ms")
	rep.set("cdcl.sat_ms", perItem(l.sat), "ms")
	rep.set("cdcl.timeout_ms", perItem(l.timeout), "ms")
	for _, k := range []string{"conflicts", "propagations", "decisions", "restarts"} {
		rep.set("cdcl."+k, float64(l.counters[k])/n, "count")
	}
	solve := l.refute + l.sat + l.timeout
	rep.set("cdcl.props_per_s", ratio(float64(l.counters["propagations"]), solve.Seconds()), "1/s")
	rep.set("ladder.rungs", float64(l.rungs)/n, "count")
	rep.set("ladder.refuted_rungs", float64(l.refuted)/n, "count")
	rep.set("decode_verify_ms", perItem(l.decodeVerify), "ms")
	rep.set("map.self_ms", perItem(self["mapper.Map"]), "ms")
	rep.set("lp.write_ms", perItem(self["ilp.WriteLP"]), "ms")
	rep.set("lp.mb", float64(l.lpBytes)/1e6/n, "MB")
	rep.set("lp.mb_per_s", ratio(float64(l.lpBytes)/1e6, self["ilp.WriteLP"].Seconds()), "MB/s")
	rep.set("trace.item_ms", perItem(totals(spans)["item"]), "ms")
	rep.set("trace.self_ms", perItem(self["item"]), "ms")
	rep.set("ladder.refute_share", ratio(l.refute.Seconds(), totals(spans)["item"].Seconds()), "ratio")
}

// overhead reports traced minus untraced wall time over the same items.
func overhead(rep *report, traced, untraced time.Duration, items int) {
	rep.set("trace.overhead_ms", ms(traced-untraced)/float64(max(items, 1)), "ms")
	if untraced > 0 {
		rep.set("trace.overhead_frac", (traced-untraced).Seconds()/untraced.Seconds(), "ratio")
	}
}

// runtimeStats reports the benchmark process's GC pause and allocation
// per item between two MemStats snapshots.
func runtimeStats(rep *report, before, after *runtime.MemStats, items int) {
	n := float64(max(items, 1))
	rep.set("gc.pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/n, "ms")
	rep.set("heap.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6/n, "MB")
}
