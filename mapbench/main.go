// Command mapbench is the mapper's end-to-end benchmark. One process
// drives one workload through the exported functions of the mapper's
// layers, checks every answer against golden answers and by
// verification, and prints the end-to-end metrics; with -trace 1 it
// instead replays the same items one layer call at a time and prints
// the per-layer metrics.
//
//	bash mapbench/run.sh --workload ladder --seed 1 --seconds 36 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	ladder  in-process mapper.MapAuto over a kernel x fabric panel
//	sweep   Table 2 cells at a fixed II submitted to a cgramapd it starts
//	export  NewTemplate -> BuildModel -> WriteLP of 8x8 models, no solve
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer prints
// correct=false and exits 1; a harness failure exits 2 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
)

// env is what every workload receives.
type env struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	daemonBin string
	golden    *golden
	tr        *tracer // nil unless tracing
	log       io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// report is a workload's outcome.
type report struct {
	tally
	wrong   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// wrongf records a wrong answer; any one fails the run.
func (r *report) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*env) (*report, error){
	"ladder": runLadder,
	"sweep":  runSweep,
	"export": runExport,
}

func main() {
	workload := flag.String("workload", "", "ladder | sweep | export")
	seed := flag.Int64("seed", 1, "workload seed: item solver seeds and sweep visit orders")
	seconds := flag.Int("seconds", 36, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 replays the items one layer call at a time and prints per-layer metrics")
	daemon := flag.String("daemon", "", "cgramapd binary for the sweep workload")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	record := flag.String("record-golden", "", "recompute the golden answers into this file and exit")
	flag.Parse()

	if *record != "" {
		err := recordGolden(*record, func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: mapbench --workload ladder|sweep|export --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbench:", err)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		daemonBin: *daemon, golden: g, log: os.Stdout}
	if e.trace {
		e.tr = newTracer()
	}
	rep, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbench:", err)
		os.Exit(2)
	}
	if e.tr != nil && *spans != "" {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "mapbench: writing spans:", err)
			os.Exit(2)
		}
		e.logf("spans: %s", path)
	}
	os.Exit(finish(os.Stdout, rep, e.trace))
}

// finish prints the report and the result line and returns the exit
// code: 0, or 1 when an answer was wrong.
func finish(w io.Writer, rep *report, trace bool) int {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := result{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = metric{0, m.unit} // a layer this workload never calls
		}
		out.Metrics[m.name] = v
	}
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	for _, msg := range rep.wrong {
		fmt.Fprintln(w, "WRONG:", msg)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

// panelItem is one kernel on one fabric: a ladder item (Contexts is set
// per rung), a sweep cell or an exported model.
type panelItem struct {
	Kernel string
	Spec   arch.GridSpec
}

func (it panelItem) key() string { return it.Kernel + "/" + it.Spec.Name() }

// panel holds the DFGs and fabrics of a list of items, index for index.
type panel struct {
	graphs []*dfg.Graph
	archs  []*arch.Arch
}

func loadPanel(items []panelItem) (*panel, error) {
	p := &panel{}
	for _, it := range items {
		g, err := bench.Get(it.Kernel)
		if err != nil {
			return nil, err
		}
		a, err := arch.Grid(it.Spec)
		if err != nil {
			return nil, err
		}
		p.graphs = append(p.graphs, g)
		p.archs = append(p.archs, a)
	}
	return p, nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"decided_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"cpu_s", "s"},
}

// perLayer lists the metrics every traced run prints. Per-item figures
// are divided by the number of replayed items; see README.md.
var perLayer = []metricDef{
	{"mrrg.gen_ms", "ms"},
	{"mrrg.nodes", "count"},
	{"sym.discover_ms", "ms"},
	{"sym.lift_ms", "ms"},
	{"sym.generators", "count"},
	{"sched.mii_ms", "ms"},
	{"presolve.decided", "count"},
	{"template.ms", "ms"},
	{"stamp.ms", "ms"},
	{"stamp.first_ms", "ms"},
	{"stamp.warm_ms", "ms"},
	{"stamp.vars", "count"},
	{"stamp.constraints", "count"},
	{"stamp.alloc_mb", "MB"},
	{"cdcl.refute_ms", "ms"},
	{"cdcl.sat_ms", "ms"},
	{"cdcl.timeout_ms", "ms"},
	{"cdcl.conflicts", "count"},
	{"cdcl.propagations", "count"},
	{"cdcl.decisions", "count"},
	{"cdcl.restarts", "count"},
	{"cdcl.props_per_s", "1/s"},
	{"ladder.rungs", "count"},
	{"ladder.refuted_rungs", "count"},
	{"ladder.refute_share", "ratio"},
	{"decode_verify_ms", "ms"},
	{"map.self_ms", "ms"},
	{"artifact.template_hit_frac", "ratio"},
	{"artifact.mrrg_hit_frac", "ratio"},
	{"lp.write_ms", "ms"},
	{"lp.mb", "MB"},
	{"lp.mb_per_s", "MB/s"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.poll_lag_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"service.dedup_frac", "ratio"},
	{"service.rejected", "count"},
	{"gc.pause_ms", "ms"},
	{"heap.alloc_mb", "MB"},
	{"trace.items", "count"},
	{"trace.item_ms", "ms"},
	{"trace.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}
