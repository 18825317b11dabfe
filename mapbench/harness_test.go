package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/service"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
	} {
		p, ok := highestTail(tc.n)
		if ok != tc.ok || p != tc.p {
			t.Errorf("highestTail(%d) = p%g %v, want p%g %v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok && beyond(tc.n, p) < tailMinBeyond {
			t.Errorf("n=%d p%g: only %d items beyond", tc.n, p, beyond(tc.n, p))
		}
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	// A workload sized for p75 keeps p75 when it runs more items.
	got, ok := tailLatency(xs, 75)
	if !ok || got.P != 75 || got.Value != 75 || got.Beyond != 25 {
		t.Errorf("tailLatency(1..100, p75) = %+v", got)
	}
	// Too few items for the workload's percentile: fall back.
	got, ok = tailLatency(xs[:30], 75)
	if !ok || got.P != 50 || got.Beyond < tailMinBeyond {
		t.Errorf("tailLatency(30 items, p75) = %+v, want the p50 fallback", got)
	}
	if _, ok := tailLatency(xs[:15], 50); ok {
		t.Error("tailLatency(15 items) reported a tail with fewer than 10 items beyond any percentile")
	}
}

func TestDecidedFracCountsTimeoutsRefusalsAndFailures(t *testing.T) {
	in, err := sweepBuild()
	if err != nil {
		t.Fatal(err)
	}
	gold := &golden{Sweep: map[string]string{}}
	for _, c := range sweepCells {
		gold.Sweep[c.key()] = "T"
	}
	done := &service.JobStatus{State: service.JobDone}
	zero := 0 // the first cell is presolve-infeasible
	subs := []submission{
		{cell: zero, st: done, res: &service.JobResult{Status: ilp.Infeasible}},
		{cell: zero, st: done, res: &service.JobResult{Status: ilp.Unknown}},
		{cell: zero, err: &service.Error{Code: 429, Err: service.ErrQueueFull}},
		{cell: zero, err: &service.Error{Code: 503, Err: service.ErrDraining}},
		{cell: zero, st: &service.JobStatus{State: service.JobFailed}},
		{cell: zero, err: errors.New("connection reset")},
	}
	want := []outcome{decided, timedOut, refused, refused, failedOp, failedOp}
	rep := newReport()
	for i, s := range subs {
		if got := classify(gold, in, s, rep); got != want[i] {
			t.Errorf("submission %d classified %v, want %v", i, got, want[i])
		}
		rep.add(want[i])
	}
	if len(rep.wrong) != 0 {
		t.Errorf("undecided answers were reported wrong: %v", rep.wrong)
	}
	if got := rep.decidedFrac(); got != 1.0/6 {
		t.Errorf("decidedFrac = %v, want 1/6", got)
	}
	if rep.attempted != 6 || rep.timedOut != 1 || rep.refused != 2 || rep.failed != 2 {
		t.Errorf("tally = %+v", rep.tally)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 80 * ms, End: 120 * ms}, // past the parent's end
		{Name: "leaf", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"parent": 30 * ms, // 100 - |[10,60] U [80,100]|
		"a":      25 * ms,
		"b":      30 * ms,
		"c":      40 * ms,
		"leaf":   5 * ms,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}

func TestWrongGoldenAnswerFailsTheRun(t *testing.T) {
	it := panelItem{"2x2-f", grid(3, 3, true, true)}
	g, err := bench.Get(it.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Grid(it.Spec)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := mapper.MapAuto(context.Background(), g, a, ladderMaxII, ladderOptions(5))
	if err != nil || !auto.Feasible() {
		t.Fatalf("MapAuto: %v %v", auto, err)
	}

	right := &golden{Ladder: map[string]int{it.key(): auto.II}}
	rep := newReport()
	if o := checkLadder(right, it, g, auto, rep); o != decided || len(rep.wrong) != 0 {
		t.Fatalf("correct golden: outcome %v, wrong %v", o, rep.wrong)
	}

	bad := &golden{Ladder: map[string]int{it.key(): auto.II + 1}}
	rep = newReport()
	rep.add(checkLadder(bad, it, g, auto, rep))
	if len(rep.wrong) == 0 {
		t.Fatal("a wrong golden minimal II was not reported")
	}
	var out bytes.Buffer
	if code := finish(&out, rep, false); code == 0 {
		t.Error("finish exited 0 after a wrong answer")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("result line says correct after a wrong answer")
	}

	// A sweep verdict that contradicts its golden cell fails too.
	sin, err := sweepBuild()
	if err != nil {
		t.Fatal(err)
	}
	cell := sweepCells[0]
	rep = newReport()
	classify(&golden{Sweep: map[string]string{cell.key(): "1"}}, sin,
		submission{cell: 0, st: &service.JobStatus{State: service.JobDone}, res: &service.JobResult{Status: ilp.Infeasible}}, rep)
	if len(rep.wrong) == 0 {
		t.Error("a sweep verdict contradicting its golden cell was not reported")
	}
}

func TestEmbeddedGoldenCoversEveryItem(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range ladderPanel {
		if _, ok := gold.Ladder[it.key()]; !ok {
			t.Errorf("no golden minimal II for ladder item %s", it.key())
		}
	}
	for _, c := range sweepCells {
		if v, ok := gold.Sweep[c.key()]; !ok || (v != "0" && v != "1" && v != "T") {
			t.Errorf("golden verdict for sweep cell %s = %q", c.key(), v)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the harness prints
// in step with the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range printed {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}

func TestSetupTimerSpreadsSamplesOverTheTimedPhase(t *testing.T) {
	var now time.Duration
	var at []time.Duration
	st := &setupTimer[int]{budget: 9 * time.Second, fn: func() (int, error) {
		at = append(at, now)
		return 0, nil
	}}
	if _, err := st.take(); err != nil {
		t.Fatal(err)
	}
	for now = 0; now <= 20*time.Second; now += 500 * time.Millisecond {
		if err := st.due(now); err != nil {
			t.Fatal(err)
		}
	}
	want := []time.Duration{0}
	for k := 1; k < setupRepeats; k++ {
		want = append(want, time.Duration(k)*time.Second)
	}
	if len(at) != len(want) {
		t.Fatalf("samples at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("sample %d at %v, want %v", i, at[i], want[i])
		}
	}
}
