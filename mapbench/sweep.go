package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/perf"
	"cgramap/internal/sched"
	"cgramap/internal/service"
)

// paperArch indexes arch.PaperArchitectures: 0-3 are hetero-orth,
// hetero-diag, homo-orth, homo-diag with one context, 4-7 the same with
// two.
func paperArch(i int) arch.GridSpec { return arch.PaperArchitectures()[i] }

// cells lists Table 2 cells: kernels on one of the paper's eight 4x4
// architectures at the architecture's own context count.
func cells(archIdx int, kernels ...string) []panelItem {
	var out []panelItem
	for _, k := range kernels {
		out = append(out, panelItem{k, paperArch(archIdx)})
	}
	return out
}

// sweepCells holds four of the 20 cells presolve decides (the 0s: two
// multiplier pigeonholes, two MII bounds), 17 cells the daemon's seed
// decides well inside the job deadline (each under 150 ms on a 2-core
// machine), and four cells that stay T at every budget tried here (20 s):
// routing-congestion refutations, ROADMAP item 5's target.
//
// The mix is sized for steady percentiles. A 0 cell answers in under a
// millisecond and races the client's first poll, so its latency is
// either a cache hit's or a whole poll interval's; with all 20 of them
// the median flipped between the two from run to run. With four, cache
// hits stay under half the submissions and the median lands among the
// poll-interval latencies. Four T cells in 25 put the top sixth of
// submissions at the deadline, so the p95 tail sits inside that cluster.
var sweepCells = concat(
	cells(0, "mult_10"),
	cells(1, "cos_4"),
	cells(2, "extreme"),
	cells(3, "extreme"),
	cells(0, "accum", "2x2-f", "2x2-p"),
	cells(1, "accum", "2x2-f", "2x2-p", "exp_4"),
	cells(2, "accum", "2x2-f", "2x2-p"),
	cells(3, "2x2-f", "2x2-p"),
	cells(4, "2x2-f", "2x2-p"),
	cells(5, "2x2-f", "2x2-p"),
	cells(7, "2x2-f"),
	cells(0, "mac", "add_14"),
	cells(1, "weighted_sum"),
	cells(3, "exp_6"),
)

func concat(parts ...[]panelItem) []panelItem {
	var out []panelItem
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

const (
	sweepDeadline = 500 * time.Millisecond
	// daemonSeed is the daemon's fixed solver seed; the workload seed
	// only orders the clients' visits.
	daemonSeed   = 1
	sweepClients = 2
	// sweepTailP is the highest tail percentile the 550-600 submissions
	// of a run support.
	sweepTailP = 95
)

// sweepInputs are the generated requests plus the local DFGs and MRRGs
// every returned mapping is re-verified against.
type sweepInputs struct {
	*panel
	reqs  []*service.JobRequest
	mrrgs []*mrrg.Graph
}

func sweepBuild() (*sweepInputs, error) {
	p, err := loadPanel(sweepCells)
	if err != nil {
		return nil, err
	}
	in := &sweepInputs{panel: p}
	for i, c := range sweepCells {
		mg, err := mrrg.Generate(p.archs[i])
		if err != nil {
			return nil, err
		}
		spec := c.Spec
		in.reqs = append(in.reqs, &service.JobRequest{DFG: p.graphs[i].FormatString(), Grid: &spec,
			Engine: service.EngineCDCL, DeadlineMS: sweepDeadline.Milliseconds()})
		in.mrrgs = append(in.mrrgs, mg)
	}
	return in, nil
}

// daemon is a cgramapd process started for one pass.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *lineWatch
	exited chan error
}

// lineWatch collects the daemon's log and reports its listen address.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				w.sent = true
				w.addr <- addr
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("the sweep workload needs -daemon (a cgramapd binary)")
	}
	lw := &lineWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(sweepClients),
		"-solve-workers", "1", "-seed", strconv.Itoa(daemonSeed))
	cmd.Stdout, cmd.Stderr = lw, lw
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: lw, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case addr := <-lw.addr:
		d.url = "http://" + addr
	case err := <-d.exited:
		return nil, fmt.Errorf("cgramapd exited before listening: %v\n%s", err, lw)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("cgramapd did not listen within 30s\n%s", lw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &service.Client{BaseURL: d.url, PollInterval: time.Millisecond}
	if err := c.WaitHealthy(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("cgramapd did not drain within 60s")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exiting is fine
	<-d.exited
}

// metrics scrapes the daemon's Prometheus counters.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// warmupRequest is mapped once after each daemon start.
func warmupRequest() (*service.JobRequest, error) {
	g, err := bench.Get("2x2-f")
	if err != nil {
		return nil, err
	}
	spec := arch.GridSpec{Rows: 2, Cols: 2, Homogeneous: true, Contexts: 2}
	return &service.JobRequest{DFG: g.FormatString(), Grid: &spec, DeadlineMS: 10000}, nil
}

// sweepSetup generates the inputs, starts a daemon, waits until it is
// healthy and maps the warm-up job.
func sweepSetup(bin string) (*sweepInputs, *daemon, error) {
	in, err := sweepBuild()
	if err != nil {
		return nil, nil, err
	}
	warm, err := warmupRequest()
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &service.Client{BaseURL: d.url, PollInterval: time.Millisecond}
	if _, err := c.Solve(ctx, warm); err != nil {
		d.kill()
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	return in, d, nil
}

// submission is one client request from submit to fetched result.
type submission struct {
	cell             int
	latency          time.Duration
	st               *service.JobStatus
	res              *service.JobResult
	err              error
	submitD, resultD time.Duration
}

// passResult is one daemon session.
type passResult struct {
	subs []submission
	wall time.Duration
	cpu  time.Duration
	rss  float64
	prom map[string]float64
}

// runPass has each client visit every cell once, in its own seeded
// order, against a fresh daemon. Passes are whole so every run measures
// the same mix of first visits and repeats.
func runPass(e *env, d *daemon, in *sweepInputs, pass int, tr *tracer, nextItem *int) (*passResult, error) {
	pr := &passResult{}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < sweepClients; cl++ {
		order := rand.New(rand.NewSource(deriveSeed(e.seed, 10+cl, pass))).Perm(len(in.reqs))
		c := &service.Client{BaseURL: d.url, MaxRetries: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ci := range order {
				item := -1
				if tr != nil {
					mu.Lock()
					item = *nextItem
					*nextItem++
					mu.Unlock()
				}
				s := submit(c, in.reqs[ci], tr, item)
				s.cell = ci
				mu.Lock()
				pr.subs = append(pr.subs, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	pr.cpu = cpu1 - cpu0
	if pr.rss, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if tr != nil {
		if pr.prom, err = d.metrics(); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// submit runs one closed-loop request: submit, poll until terminal, and
// fetch the result, as service.Client.Solve does.
func submit(c *service.Client, req *service.JobRequest, tr *tracer, item int) submission {
	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline+time.Minute)
	defer cancel()
	var s submission
	root := -1
	call := func(name string, fn func()) time.Duration {
		if tr == nil {
			t0 := time.Now()
			fn()
			return time.Since(t0)
		}
		id := tr.begin(name, item, root)
		fn()
		return tr.end(id)
	}
	if tr != nil {
		root = tr.begin("submission", item, -1)
		defer tr.end(root)
	}
	t0 := time.Now()
	var st *service.JobStatus
	s.submitD = call("client.Submit", func() { st, s.err = c.Submit(ctx, req) })
	if s.err == nil {
		call("client.Wait", func() { s.st, s.err = c.Wait(ctx, st.ID) })
	}
	if s.err == nil && s.st.State == service.JobDone {
		s.resultD = call("client.Result", func() { s.res, s.err = c.Result(ctx, st.ID) })
	}
	s.latency = time.Since(t0)
	return s
}

// classify checks one submission's answer against the golden verdict and
// by re-verifying and simulating any returned mapping.
func classify(gold *golden, in *sweepInputs, s submission, rep *report) outcome {
	var se *service.Error
	switch {
	case errors.As(s.err, &se) && (se.Code == 429 || se.Code == 503):
		return refused
	case s.err != nil:
		return failedOp
	case s.st.State != service.JobDone || s.res == nil:
		return failedOp
	}
	c := sweepCells[s.cell]
	want, ok := gold.Sweep[c.key()]
	if !ok {
		rep.wrongf("sweep %s: no golden verdict", c.key())
		return failedOp
	}
	got := s.res.Status.Mark()
	if s.res.Feasible {
		m, err := mapper.FromPortable(in.graphs[s.cell], in.mrrgs[s.cell], s.res.Mapping)
		if err == nil {
			err = checkMapping(m, in.graphs[s.cell])
		}
		if err != nil {
			rep.wrongf("sweep %s: mapping: %v", c.key(), err)
		}
	}
	switch {
	case got == "T":
		return timedOut
	case want != "T" && got != want:
		rep.wrongf("sweep %s: verdict %s, golden %s", c.key(), got, want)
	}
	return decided
}

func runSweep(e *env) (*report, error) {
	rep := newReport()
	budget := e.seconds
	if e.trace {
		budget /= 2
	}
	// Each pass sets up its own daemon, so set-up is sampled once per pass,
	// spread over the run like the timed figures.
	var setups []float64
	var in *sweepInputs
	var passes []*passResult
	var timed time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pass := 0; timed < budget; pass++ {
		t0 := time.Now()
		var d *daemon
		var err error
		if in, d, err = sweepSetup(e.daemonBin); err != nil {
			return nil, fmt.Errorf("sweep set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		pr, err := runPass(e, d, in, pass, nil, nil)
		if stopErr := d.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stopping cgramapd: %w\n%s", stopErr, d.log)
		}
		if err != nil {
			return nil, err
		}
		timed += pr.wall
		passes = append(passes, pr)
	}
	runtime.ReadMemStats(&after)
	rep.set("setup_s", perf.Median(setups), "s")

	var lats []float64
	var cpu time.Duration
	var peaks []float64 // each pass has its own daemon
	for _, pr := range passes {
		for _, s := range pr.subs {
			rep.add(classify(e.golden, in, s, rep))
			lats = append(lats, ms(s.latency))
		}
		cpu += pr.cpu
		peaks = append(peaks, pr.rss)
	}
	if !e.trace {
		endToEndMetrics(e, rep, lats, timed, cpu, peaks, sweepTailP)
		e.logf("sweep: %d passes, %d submissions, %d timed out, %d refused, %d failed",
			len(passes), rep.attempted, rep.timedOut, rep.refused, rep.failed)
		return rep, nil
	}
	runtimeStats(rep, &before, &after, len(lats))
	return rep, traceSweep(e, rep, in, passes, timed)
}

// traceSweep repeats the measured passes with a span around every client
// call, derives the service-layer metrics from those spans, the jobs'
// timestamps and /metrics, and then replays each distinct cell in
// process one layer call at a time.
func traceSweep(e *env, rep *report, in *sweepInputs, measured []*passResult, untraced time.Duration) error {
	var traced time.Duration
	var subs []submission
	var prom [4]float64 // submitted, hits, dedups, rejected
	nextItem := 0
	for pass := range measured {
		_, d, err := sweepSetup(e.daemonBin)
		if err != nil {
			return err
		}
		pr, err := runPass(e, d, in, pass, e.tr, &nextItem)
		if stopErr := d.stop(); err == nil && stopErr != nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		traced += pr.wall
		for _, s := range pr.subs {
			rep.add(classify(e.golden, in, s, rep))
		}
		subs = append(subs, pr.subs...)
		// The warm-up job is one submission and one miss.
		prom[0] += pr.prom["cgramapd_jobs_submitted_total"] - 1
		prom[1] += pr.prom["cgramapd_cache_hits_total"]
		prom[2] += pr.prom["cgramapd_singleflight_dedup_total"]
		prom[3] += pr.prom["cgramapd_jobs_rejected_total"]
	}
	overhead(rep, traced, untraced, len(subs))

	// Queue wait and run time are per solved submission: a cache hit
	// never queues, and a single-flight join inherits the start time of
	// the solve it joined.
	var submitD, queue, run, lag, resultD time.Duration
	solved := 0
	for _, s := range subs {
		submitD += s.submitD
		resultD += s.resultD
		if s.st == nil {
			continue
		}
		lag += s.latency - s.st.FinishedAt.Sub(s.st.SubmittedAt)
		if !s.st.CacheHit && !s.st.Deduped && !s.st.StartedAt.IsZero() {
			solved++
			queue += s.st.StartedAt.Sub(s.st.SubmittedAt)
			run += s.st.FinishedAt.Sub(s.st.StartedAt)
		}
	}
	n := float64(max(len(subs), 1))
	rep.set("service.submit_ms", ms(submitD)/n, "ms")
	rep.set("service.queue_wait_ms", ms(queue)/float64(max(solved, 1)), "ms")
	rep.set("service.run_ms", ms(run)/float64(max(solved, 1)), "ms")
	rep.set("service.poll_lag_ms", ms(lag)/n, "ms")
	rep.set("service.result_ms", ms(resultD)/n, "ms")
	if prom[0] > 0 {
		rep.set("service.cache_hit_frac", prom[1]/prom[0], "ratio")
		rep.set("service.dedup_frac", prom[2]/prom[0], "ratio")
	}
	rep.set("service.rejected", prom[3], "count")
	logPollShare(e, subs)
	return replaySweep(e, rep, in, subs)
}

// logPollShare prints the poll-lag share of latency for cache hits and
// for solved submissions.
func logPollShare(e *env, subs []submission) {
	var hitLag, hitLat, solvedLag, solvedLat time.Duration
	for _, s := range subs {
		if s.st == nil {
			continue
		}
		lag := s.latency - s.st.FinishedAt.Sub(s.st.SubmittedAt)
		if s.st.CacheHit {
			hitLag, hitLat = hitLag+lag, hitLat+s.latency
		} else {
			solvedLag, solvedLat = solvedLag+lag, solvedLat+s.latency
		}
	}
	share := func(a, b time.Duration) float64 { return a.Seconds() / max(b.Seconds(), 1e-9) }
	e.logf("poll lag share: %.3f of cache-hit latency, %.3f of solved latency",
		share(hitLag, hitLat), share(solvedLag, solvedLat))
}

// replaySweep maps each distinct submitted cell in process the way the
// daemon's workers do (fixed II, symmetry auto resolving to off, the
// daemon's seed, one shared artifact cache), with a span per layer call,
// and checks that each decided status and model size equals the
// daemon's.
func replaySweep(e *env, rep *report, in *sweepInputs, subs []submission) error {
	l := newLayers(e.tr)
	byCell := map[int]*service.JobResult{}
	var cellOrder []int
	for _, s := range subs {
		if s.res == nil {
			continue
		}
		if _, seen := byCell[s.cell]; !seen {
			cellOrder = append(cellOrder, s.cell)
		}
		if prev := byCell[s.cell]; prev == nil || prev.Status == ilp.Unknown {
			byCell[s.cell] = s.res
		}
	}
	cache := mapper.NewArtifactCache(64) // the daemon's default
	opts := mapper.Options{Workers: 1, Seed: daemonSeed, Symmetry: mapper.SymmetryOff, Artifacts: cache}
	for i, ci := range cellOrder {
		item := 1_000_000 + i
		c, g := sweepCells[ci], in.graphs[ci]
		root := l.tr.begin("item", item, -1)
		var a *arch.Arch
		var err error
		l.tr.do("arch.Grid", item, root, func() { a, err = arch.Grid(c.Spec) })
		if err != nil {
			return err
		}
		single := *a
		single.Contexts = 1
		mg1, err := l.generate(item, root, func() (*mrrg.Graph, error) { return mrrg.Generate(&single) })
		if err != nil {
			return err
		}
		l.tr.do("sched.MII", item, root, func() { _, err = sched.MII(g, mg1) })
		if err != nil {
			return err
		}
		mg, err := l.generate(item, root, func() (*mrrg.Graph, error) { return mrrg.Generate(a) })
		if err != nil {
			return err
		}
		var t *mapper.Template
		l.tr.do("mapper.NewTemplate", item, root, func() { t, err = mapper.NewTemplate(g, a, opts) })
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
		res, _, err := l.mapRung(ctx, item, root, g, t, mg, true, opts, daemonSeed)
		cancel()
		l.tr.end(root)
		if err != nil {
			return err
		}
		want := byCell[ci]
		decidedBoth := res.Status != ilp.Unknown && want.Status != ilp.Unknown
		if decidedBoth && (res.Feasible() != want.Feasible || res.Vars != want.Vars || res.Constraints != want.Constraints) {
			return fmt.Errorf("sweep replay of %s diverged: %v with %d vars, daemon %v with %d vars",
				c.key(), res.Status, res.Vars, want.Status, want.Vars)
		}
	}
	l.items = len(cellOrder)
	l.metrics(rep)
	return nil
}
