package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// gridReq builds a small distinguishable job: benchmark 2x2-f on an
// n-context 2x2 grid, with variant folded into the deadline-independent
// part via contexts.
func gridReq(contexts int) *JobRequest {
	return &JobRequest{
		Benchmark: "2x2-f",
		Grid:      &arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true},
		Contexts:  contexts,
	}
}

// fakeResult returns a distinguishable definitive result.
func fakeResult(tag string) *JobResult {
	return &JobResult{Status: ilp.Feasible, Feasible: true, Reason: tag, Engine: EngineCDCL}
}

// TestSingleFlightAndCache is the headline e2e test: N concurrent
// clients submit a mix of duplicate and distinct jobs, and each distinct
// instance is solved exactly once — later duplicates are answered by the
// in-flight dedup or the cache, never by a second solve. Verified both
// through the solve counter and through the exported metrics.
func TestSingleFlightAndCache(t *testing.T) {
	var solves sync.Map // fingerprint -> *int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := New(Options{
		Workers:    4,
		QueueDepth: 64,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			n, _ := solves.LoadOrStore(spec.Fingerprint, new(int64))
			atomic.AddInt64(n.(*int64), 1)
			once.Do(func() { close(started) })
			<-release // hold every solve until all submissions are in
			return fakeResult(spec.Fingerprint[:8]), nil
		},
	})

	const clients = 12
	const distinct = 3 // contexts 1..3
	var wg sync.WaitGroup
	ids := make([]string, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(gridReq(1 + i%distinct))
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	<-started
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}

	total := int64(0)
	solves.Range(func(_, v any) bool {
		n := atomic.LoadInt64(v.(*int64))
		if n != 1 {
			t.Errorf("a distinct instance was solved %d times, want exactly 1", n)
		}
		total += n
		return true
	})
	if total != distinct {
		t.Errorf("%d instances solved, want %d", total, distinct)
	}

	// Cached now: a fresh duplicate submission must not solve again.
	st, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit || st.State != JobDone {
		t.Errorf("post-completion duplicate: cache_hit=%v state=%s, want hit+done", st.CacheHit, st.State)
	}

	m := metricsText(t, s)
	wantMetric(t, m, "cgramapd_jobs_submitted_total", clients+1)
	wantMetric(t, m, "cgramapd_cache_misses_total", distinct)
	wantMetric(t, m, "cgramapd_cache_hits_total", 1)
	wantMetric(t, m, "cgramapd_singleflight_dedup_total", clients-distinct)
	wantMetric(t, m, `cgramapd_jobs_completed_total{state="done"}`, clients+1)
	wantMetric(t, m, "cgramapd_cache_entries", distinct)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPropagatesToSolverContext: DELETE on the last interested job
// cancels the solver's context; a duplicate submission keeps the solve
// alive until it too is cancelled.
func TestCancelPropagatesToSolverContext(t *testing.T) {
	running := make(chan struct{})
	observed := make(chan error, 1)
	s := New(Options{
		Workers: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			close(running)
			<-ctx.Done()
			observed <- ctx.Err()
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())

	first, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	second, err := s.Submit(gridReq(1)) // dedups onto the same solve
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped {
		t.Fatalf("duplicate of a running job not deduped: %+v", second)
	}

	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-observed:
		t.Fatalf("solve cancelled while a live duplicate still wants it: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := s.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Fatalf("solver ctx ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the last job did not cancel the solver context")
	}

	for _, id := range []string{first.ID, second.ID} {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobCancelled {
			t.Errorf("job %s state %s, want cancelled", id, st.State)
		}
	}
}

// TestClientSolveCancelled: ctx expiring while the client polls must
// surface the ctx error (not panic on the nil Wait status) and
// best-effort cancel the remote job so the server stops solving.
func TestClientSolveCancelled(t *testing.T) {
	running := make(chan struct{})
	observed := make(chan error, 1)
	s := New(Options{
		Workers: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			close(running)
			<-ctx.Done()
			observed <- ctx.Err()
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())
	// Signal the first status poll, which proves the client is past
	// Submit and inside Wait — the window the bug lived in.
	polled := make(chan struct{})
	var pollOnce sync.Once
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			pollOnce.Do(func() { close(polled) })
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, gridReq(1))
		errCh <- err
	}()
	<-running
	<-polled
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Solve returned nil error after ctx cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Solve did not return after ctx cancellation")
	}
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Errorf("solver ctx ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client cancellation never propagated to the solver context")
	}
}

// TestCancelledExecKeepsSuccessorInflight: a fully-cancelled exec whose
// fingerprint has since been resubmitted must not evict the successor's
// inflight entry when it (a) is skipped while queued or (b) finishes a
// running solve — otherwise later duplicates stop deduplicating.
func TestCancelledExecKeepsSuccessorInflight(t *testing.T) {
	calls := make(chan struct{}, 16)
	proceed := make(chan struct{})
	s := New(Options{
		Workers:    1,
		QueueDepth: 8,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			calls <- struct{}{}
			<-ctx.Done()
			<-proceed
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())

	// Running variant: cancel the sole submission of a running solve, so
	// Cancel removes its inflight entry while the worker is still inside
	// Solve, then resubmit the same fingerprint.
	first, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-calls // worker inside Solve for first
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if second.Deduped {
		t.Fatalf("resubmission after full cancellation deduped onto a dead exec: %+v", second)
	}

	// Queued variant: park another fingerprint behind the busy worker,
	// cancel it, and resubmit; its first exec is skipped by the worker
	// with no attached jobs.
	queued, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	requeued, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}

	// Release the first (cancelled) solve: its exec completes with no
	// jobs, then the worker skips the cancelled queued exec, then starts
	// the two live resubmissions in turn.
	close(proceed)
	<-calls // worker inside Solve for second
	dup, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped {
		t.Error("duplicate of the running resubmission not deduped: the dead exec evicted its successor's inflight entry")
	}

	for _, id := range []string{second.ID, dup.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	<-calls // worker inside Solve for requeued
	dup2, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Deduped {
		t.Error("duplicate of the requeued solve not deduped: the skipped exec evicted its successor's inflight entry")
	}
	for _, id := range []string{requeued.ID, dup2.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackpressure: with workers busy and the queue full, submissions
// are rejected with a 429 error carrying Retry-After.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := New(Options{
		Workers:    1,
		QueueDepth: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			once.Do(func() { close(started) })
			<-release
			return fakeResult("bp"), nil
		},
	})
	defer func() { close(release); s.Shutdown(context.Background()) }()

	// Occupy the worker, then fill the queue: with the solve pinned, one
	// more job fits in the queue and every further submission must bounce.
	if _, err := s.Submit(gridReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	accepted, rejected := 1, 0
	for i := 0; i < 5; i++ {
		_, err := s.Submit(gridReq(2 + i))
		switch e := err.(type) {
		case nil:
			accepted++
		case *Error:
			if e.Code != 429 {
				t.Fatalf("rejection code %d, want 429", e.Code)
			}
			if e.RetryAfter <= 0 {
				t.Error("429 without Retry-After")
			}
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if accepted != 2 || rejected != 4 {
		t.Errorf("accepted %d rejected %d, want 2 and 4 (worker + queue slot)", accepted, rejected)
	}
	if got := s.Metrics.JobsRejected.Load(); got != int64(rejected) {
		t.Errorf("rejected metric %d, want %d", got, rejected)
	}
}

// TestShutdownDrains: SIGTERM-style shutdown finishes every accepted job
// and rejects new submissions, dropping nothing.
func TestShutdownDrains(t *testing.T) {
	var solved atomic.Int64
	s := New(Options{
		Workers:    2,
		QueueDepth: 16,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			time.Sleep(10 * time.Millisecond)
			solved.Add(1)
			return fakeResult("drain"), nil
		},
	})

	const jobs = 8
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		st, err := s.Submit(gridReq(1 + i)) // all distinct
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(gridReq(99)); err == nil {
		t.Error("submission accepted after shutdown")
	} else if se, ok := err.(*Error); !ok || se.Code != 503 {
		t.Errorf("post-shutdown submit error %v, want 503", err)
	}
	if got := solved.Load(); got != jobs {
		t.Errorf("%d jobs solved through drain, want %d", got, jobs)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Errorf("job %s ended %s after drain, want done", id, st.State)
		}
	}
}

// TestHTTPEndToEnd exercises the real stack over HTTP: submit via the
// client, solve with the real CDCL mapper, fetch the result, reconstruct
// and re-verify the mapping locally, then hit the cache on resubmission.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := &JobRequest{
		Benchmark: "2x2-f",
		Grid:      &arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true},
		Contexts:  2,
	}
	res, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Mapping == nil {
		t.Fatalf("expected feasible mapping, got %+v", res)
	}

	// The client-side MapFunc path: same instance through the mapper seam,
	// reconstructing and re-verifying the portable mapping.
	g, a := mustInstance(t, req)
	mres, err := solveViaMapFunc(ctx, c, g, a)
	if err != nil {
		t.Fatal(err)
	}
	if !mres.Feasible() || mres.Mapping == nil {
		t.Fatalf("MapFunc path: expected verified feasible mapping, got %v", mres.Status)
	}
	if err := mres.Mapping.Verify(); err != nil {
		t.Fatalf("reconstructed mapping fails verification: %v", err)
	}

	// Second identical submission must be served from cache.
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Errorf("resubmission not a cache hit: %+v", st)
	}

	// Metrics endpoint over HTTP.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Two hits: the MapFunc submission (same instance shipped as DFG
	// text + arch XML rather than benchmark + grid — the fingerprint
	// sees through the representation) and the explicit resubmission.
	if !strings.Contains(string(blob), "cgramapd_cache_hits_total 2") {
		t.Errorf("metrics missing cache hits:\n%s", blob)
	}

	// Unknown engine must 400 through the full stack.
	if _, err := c.Submit(ctx, &JobRequest{Benchmark: "2x2-f", Grid: req.Grid, Engine: "gurobi"}); err == nil {
		t.Error("unknown engine accepted")
	} else if se, ok := err.(*Error); !ok || se.Code != 400 {
		t.Errorf("unknown engine error %v, want 400", err)
	}

	// healthz flips to 503 once draining.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("healthz while draining: got %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestFingerprintSemantics: the job fingerprint ignores the deadline and
// the speed knobs (job symmetry, the server's seed and workers) and
// distinguishes engines, objectives and auto-II bounds. Two digests are
// pinned, so cache keys and job IDs never move by accident.
func TestFingerprintSemantics(t *testing.T) {
	solve := func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		return fakeResult("fp"), nil
	}
	s := New(Options{Workers: 1, Solve: solve})
	defer s.Shutdown(context.Background())
	tuned := New(Options{Workers: 1, Solve: solve,
		Mapper: mapper.Options{Workers: 3, Seed: 9, Symmetry: mapper.SymmetryOn}})
	defer tuned.Shutdown(context.Background())

	base := gridReq(2)
	fpOn := func(srv *Server, mutate func(*JobRequest)) string {
		r := *base
		if mutate != nil {
			mutate(&r)
		}
		spec, err := srv.ParseRequest(&r)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Fingerprint
	}
	fp := func(mutate func(*JobRequest)) string { return fpOn(s, mutate) }

	ref := fp(nil)
	if want := "85e2918b87a1358a2d0553e62d032f28ca0c8110db5cc0b92b3bf8928095b522"; ref != want {
		t.Errorf("fingerprint of the reference job moved: %s, want %s", ref, want)
	}
	ladder := fp(func(r *JobRequest) {
		r.Contexts, r.AutoII, r.Engine, r.Objective = 1, 4, EnginePortfolio, "routing"
	})
	if want := "67fa97d202e1985087b90fa75cc67d965d86d51407f3098b9715c8aa889026e1"; ladder != want {
		t.Errorf("fingerprint of the routing portfolio ladder job moved: %s, want %s", ladder, want)
	}
	if fp(func(r *JobRequest) { r.DeadlineMS = 12345 }) != ref {
		t.Error("deadline leaked into the job fingerprint")
	}
	for _, sym := range []string{"on", "off"} {
		if fp(func(r *JobRequest) { r.Symmetry = sym }) != ref {
			t.Errorf("job symmetry %q leaked into the job fingerprint", sym)
		}
	}
	if fpOn(tuned, nil) != ref {
		t.Error("the server's seed, workers or symmetry default leaked into the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Engine = EnginePortfolio }) == ref {
		t.Error("engine not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Objective = "routing" }) == ref {
		t.Error("objective not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.AutoII = 4 }) == ref {
		t.Error("auto-II bound not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Contexts = 3 }) == ref {
		t.Error("context count not part of the job fingerprint")
	}
}

// TestFingerprintClassifiesEveryKnob is the one fingerprint-exemption
// rule as a test: every mapper.Options field is either keyed into the
// job fingerprint or exempt because it never changes a job's answer. A
// new solve knob fails here until someone classifies it, and then
// Fingerprint must follow.
func TestFingerprintClassifiesEveryKnob(t *testing.T) {
	keyed := map[string]bool{"Objective": true}
	exempt := map[string]string{
		"Solver":          "follows from the keyed engine name",
		"MapWith":         "follows from the keyed engine name",
		"DisablePruning":  "ablation; pruning is sound",
		"DisablePresolve": "ablation; the presolve is sound",
		"Workers":         "parallel width; every gang proves the same answer",
		"Seed":            "search trajectory; every trajectory proves the same answer",
		"Symmetry":        "breaks symmetric duplicates, never a whole solution orbit",
		"Budget":          "pays for parallelism only",
		"Artifacts":       "stamped formulations are byte-identical to scratch ones",
	}
	typ := reflect.TypeOf(mapper.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if keyed[name] == (exempt[name] != "") {
			t.Errorf("mapper.Options.%s must be either keyed into the job fingerprint or exempt from it", name)
		}
	}
	for name := range exempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt list names %s, which mapper.Options no longer has", name)
		}
	}

	// The keyed field moves the digest; the exempt ones do not.
	g, a := mustInstance(t, gridReq(2))
	spec := &JobSpec{DFG: g, Arch: a, Engine: EngineCDCL}
	ref := Fingerprint(spec)
	spec.Mapper = mapper.Options{Workers: 4, Seed: 5, Symmetry: mapper.SymmetryOn,
		DisablePruning: true, DisablePresolve: true, Artifacts: mapper.NewArtifactCache(1)}
	if Fingerprint(spec) != ref {
		t.Error("an exempt knob moved the job fingerprint")
	}
	spec.Mapper.Objective = mapper.MinimizeRouting
	if Fingerprint(spec) == ref {
		t.Error("the objective did not move the job fingerprint")
	}
}

// TestParseRequestSolveOptions: each job starts from the server's solve
// options, takes its objective from the request, and its symmetry too
// when it says "on" or "off"; "auto" (or nothing) keeps the server
// default.
func TestParseRequestSolveOptions(t *testing.T) {
	for _, def := range []mapper.SymmetryMode{mapper.SymmetryAuto, mapper.SymmetryOn, mapper.SymmetryOff} {
		s := New(Options{Workers: 1, Mapper: mapper.Options{Workers: 3, Seed: 9, Symmetry: def}})
		for req, want := range map[string]mapper.SymmetryMode{
			"": def, "auto": def, "on": mapper.SymmetryOn, "off": mapper.SymmetryOff,
		} {
			r := gridReq(2)
			r.Symmetry, r.Objective = req, "routing"
			spec, err := s.ParseRequest(r)
			if err != nil {
				t.Fatal(err)
			}
			mo := spec.Mapper
			if mo.Symmetry != want {
				t.Errorf("server default %v, job %q: symmetry %v, want %v", def, req, mo.Symmetry, want)
			}
			if mo.Workers != 3 || mo.Seed != 9 || mo.Objective != mapper.MinimizeRouting {
				t.Errorf("job options %+v: want the server's workers 3 and seed 9, and the routing objective", mo)
			}
			if mo.Artifacts == nil || mo.Artifacts != s.artifacts {
				t.Error("job does not carry the server-wide artifact cache")
			}
		}
		s.Shutdown(context.Background())
	}

	// The heuristic engine is a fixed-II engine only.
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	r := gridReq(2)
	r.Engine = EngineAnneal
	if _, err := s.ParseRequest(r); err != nil {
		t.Errorf("fixed-II anneal job refused: %v", err)
	}
	r.AutoII = 4
	if _, err := s.ParseRequest(r); err == nil || err.(*Error).Code != 400 {
		t.Errorf("auto-II anneal job: %v, want a 400", err)
	}
}

// TestLegacyIncrementalFieldIgnored: older clients still send the
// removed "incremental" speed knob. Their requests must decode (unknown
// JSON fields are ignored) and get the same fingerprint and the same
// answer as the request without the field.
func TestLegacyIncrementalFieldIgnored(t *testing.T) {
	req := &JobRequest{
		Benchmark: "2x2-f",
		Grid: &arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true,
			Contexts: 1},
		AutoII: 3,
	}
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(`{"incremental":true,`), plain[1:]...)

	// Each body goes to its own server, so neither answer is a cache hit.
	solve := func(body []byte) (*JobStatus, *JobResult) {
		s := New(Options{Workers: 1, Mapper: mapper.Options{Workers: 1, Seed: 1}})
		defer s.Shutdown(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			blob, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit: %d %s", resp.StatusCode, blob)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		c := NewClient(ts.URL)
		c.PollInterval = 5 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if _, err := c.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		res, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		res.BuildMS, res.SolveMS = 0, 0
		return &st, res
	}
	pst, pres := solve(plain)
	lst, lres := solve(legacy)
	if lst.Fingerprint != pst.Fingerprint {
		t.Errorf("fingerprint %s with the legacy field, %s without", lst.Fingerprint, pst.Fingerprint)
	}
	if !pres.Feasible || pres.II != 2 {
		t.Fatalf("plain request: feasible=%v II=%d, want a feasible mapping at II=2", pres.Feasible, pres.II)
	}
	if !reflect.DeepEqual(lres, pres) {
		t.Errorf("answers differ:\nlegacy %+v\nplain  %+v", lres, pres)
	}
}

// TestOversizedRequestBody: a job body over maxRequestBytes gets 413
// without being buffered, and the daemon keeps serving normal jobs.
func TestOversizedRequestBody(t *testing.T) {
	s := New(Options{Workers: 1, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		return fakeResult("small"), nil
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := append([]byte(`{"dfg":"`), bytes.Repeat([]byte("x"), maxRequestBytes)...)
	big = append(big, `"}`...)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Solve(ctx, gridReq(1))
	if err != nil {
		t.Fatalf("normal job after the oversized one: %v", err)
	}
	if res.Reason != "small" {
		t.Errorf("normal job answered %+v", res)
	}
}

// TestUnknownNotCached: an Unknown (budget-limited) answer must not be
// served to a later submission.
func TestUnknownNotCached(t *testing.T) {
	var calls atomic.Int64
	s := New(Options{Workers: 1, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		calls.Add(1)
		return &JobResult{Status: ilp.Unknown, Reason: "budget"}, nil
	}})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		st, err := s.Submit(gridReq(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatal("Unknown result served from cache")
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d solves for two Unknown submissions, want 2 (no caching)", got)
	}
}

// mustInstance rebuilds the DFG and architecture a JobRequest names, the
// way a local orchestrator holding in-memory values would have them.
func mustInstance(t *testing.T, req *JobRequest) (*dfg.Graph, *arch.Arch) {
	t.Helper()
	g, err := bench.Get(req.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	spec := *req.Grid
	if spec.Contexts == 0 {
		spec.Contexts = req.Contexts
	}
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// solveViaMapFunc drives the client through the mapper.MapWith seam.
func solveViaMapFunc(ctx context.Context, c *Client, g *dfg.Graph, a *arch.Arch) (*mapper.Result, error) {
	mg, err := mrrg.Generate(a)
	if err != nil {
		return nil, err
	}
	return mapper.Dispatch(ctx, g, mg, mapper.Options{MapWith: c.MapFunc(EngineCDCL)})
}

func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Metrics.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func wantMetric(t *testing.T, text, name string, want int) {
	t.Helper()
	needle := fmt.Sprintf("%s %d\n", name, want)
	if !strings.Contains(text, needle) {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				t.Errorf("metric %s: got %q, want %d", name, line, want)
				return
			}
		}
		t.Errorf("metric %s absent, want %d", name, want)
	}
}
