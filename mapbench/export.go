package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
)

func ctx8(homo, diag bool, contexts int) arch.GridSpec {
	s := grid(8, 8, homo, diag)
	s.Contexts = contexts
	return s
}

// exportPanel holds the models handed to an external MILP solver: it spans the paper's kernels on 8x8 fabrics at one to four
// contexts, sized so one run writes about two dozen models (0.6-3 s
// each on a 2-core machine).
var exportPanel = []panelItem{
	{"extreme", ctx8(false, true, 1)},
	{"weighted_sum", ctx8(false, false, 1)},
	{"mult_10", ctx8(false, true, 1)},
	{"add_10", ctx8(true, false, 1)},
	{"2x2-f", ctx8(true, true, 1)},
	{"exp_4", ctx8(false, false, 1)},
	{"accum", ctx8(true, false, 1)},
	{"mac", ctx8(false, true, 2)},
	{"tay_4", ctx8(false, false, 2)},
	{"2x2-p", ctx8(true, false, 3)},
	{"2x2-f", ctx8(false, false, 4)},
}

// exportTailP is export's tail percentile. A run writes 33-44 models,
// and the tail rule allows p75 only from 40, so p50 is the percentile
// every run supports.
const exportTailP = 50

// lpCounter is the byte-counting discard writer WriteLP emits into.
type lpCounter struct{ n int64 }

func (c *lpCounter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// exportSetup builds the panel's DFGs and fabrics and warms the build
// and emit path with one small 4x4 model.
func exportSetup() (*panel, error) {
	in, err := loadPanel(exportPanel)
	if err != nil {
		return nil, err
	}
	g, err := bench.Get("mult_10")
	if err != nil {
		return nil, err
	}
	a, err := arch.Grid(arch.GridSpec{Rows: 4, Cols: 4, Homogeneous: true, Contexts: 1})
	if err != nil {
		return nil, err
	}
	_, _, err = exportOne(g, a)
	return in, err
}

// exportOne is one item: MRRG, template, stamp, LP emission.
func exportOne(g *dfg.Graph, a *arch.Arch) (*ilp.Model, int64, error) {
	mg, err := mrrg.Generate(a)
	if err != nil {
		return nil, 0, err
	}
	t, err := mapper.NewTemplate(g, a, mapper.Options{})
	if err != nil {
		return nil, 0, err
	}
	m, reason, err := t.BuildModel(mg)
	if err != nil {
		return nil, 0, err
	}
	if m == nil {
		return nil, 0, fmt.Errorf("no model: %s", reason)
	}
	var w lpCounter
	if err := m.WriteLP(&w); err != nil {
		return nil, 0, err
	}
	return m, w.n, nil
}

type exportRun struct {
	item    int
	latency time.Duration
}

func runExport(e *env) (*report, error) {
	rep := newReport()
	budget := e.seconds
	if e.trace {
		budget /= 2
	}
	st := &setupTimer[*panel]{fn: exportSetup, budget: budget}
	in, err := st.take()
	if err != nil {
		return nil, fmt.Errorf("export set-up: %w", err)
	}

	var runs []exportRun
	var timed, cpu time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Whole passes over the panel, each in its own seeded order, keep the
	// item mix of every run the same.
	var peaks passPeaks
	for pass := 0; timed < budget || len(runs) < minItems; pass++ {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		for _, idx := range rand.New(rand.NewSource(deriveSeed(e.seed, 3, pass))).Perm(len(exportPanel)) {
			c0, t0 := selfCPU(), time.Now()
			m, n, err := exportOne(in.graphs[idx], in.archs[idx])
			lat := time.Since(t0)
			cpu += selfCPU() - c0
			timed += lat
			if err != nil {
				rep.add(failedOp)
				e.logf("export %s: %v", exportPanel[idx].key(), err)
				continue
			}
			// Checked outside the timed region. Sizes are layer metrics, not
			// pass/fail: a formulation may legitimately shrink.
			if err := m.Validate(); err != nil {
				rep.wrongf("export %s: invalid model: %v", exportPanel[idx].key(), err)
			}
			if n == 0 {
				rep.wrongf("export %s: empty LP", exportPanel[idx].key())
			}
			rep.add(decided)
			runs = append(runs, exportRun{idx, lat})
			if err := st.due(timed); err != nil {
				return nil, fmt.Errorf("export set-up: %w", err)
			}
		}
		if err := peaks.end(os.Getpid()); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	rep.set("setup_s", st.median(), "s")

	if !e.trace {
		var lats []float64
		for _, r := range runs {
			lats = append(lats, ms(r.latency))
		}
		endToEndMetrics(e, rep, lats, timed, cpu, peaks, exportTailP)
		return rep, nil
	}

	runtimeStats(rep, &before, &after, len(runs))
	l := newLayers(e.tr)
	var traced time.Duration
	for i, r := range runs {
		d, err := replayExport(l, i, in.graphs[r.item], exportPanel[r.item])
		if err != nil {
			return nil, err
		}
		traced += d
	}
	l.items = len(runs)
	l.metrics(rep)
	overhead(rep, traced, timed, len(runs))
	return rep, nil
}

// replayExport repeats one export one layer call at a time.
func replayExport(l *layers, i int, g *dfg.Graph, it panelItem) (time.Duration, error) {
	root := l.tr.begin("item", i, -1)
	var a *arch.Arch
	var err error
	l.tr.do("arch.Grid", i, root, func() { a, err = arch.Grid(it.Spec) })
	if err != nil {
		return 0, err
	}
	mg, err := l.generate(i, root, func() (*mrrg.Graph, error) { return mrrg.Generate(a) })
	if err != nil {
		return 0, err
	}
	single := *a
	single.Contexts = 1
	mg1, err := l.generate(i, root, func() (*mrrg.Graph, error) { return mrrg.Generate(&single) })
	if err != nil {
		return 0, err
	}
	l.tr.do("sched.MII", i, root, func() { _, err = sched.MII(g, mg1) })
	if err != nil {
		return 0, err
	}
	var t *mapper.Template
	l.tr.do("mapper.NewTemplate", i, root, func() { t, err = mapper.NewTemplate(g, a, mapper.Options{}) })
	if err != nil {
		return 0, err
	}
	m, reason, err := l.stamp(i, root, t, mg, true)
	if err != nil {
		return 0, err
	}
	if m == nil {
		return 0, fmt.Errorf("export replay of %s: no model: %s", it.key(), reason)
	}
	var w lpCounter
	l.tr.do("ilp.WriteLP", i, root, func() { err = m.WriteLP(&w) })
	if err != nil {
		return 0, err
	}
	l.lpBytes += w.n
	return l.tr.end(root), nil
}
