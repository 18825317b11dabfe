package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cgramap/internal/perf"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome classifies one attempted item.
type outcome int

const (
	// decided: a checked verdict arrived within the item's budget.
	decided outcome = iota
	// timedOut: the solver budget ran out (a T cell, an unproven rung).
	timedOut
	// refused: the daemon shed or refused the submission (429/503).
	refused
	// failedOp: the operation itself failed (a failed job, an error).
	failedOp
)

// tally counts item outcomes.
type tally struct {
	attempted, decided, timedOut, refused, failed int
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case decided:
		t.decided++
	case timedOut:
		t.timedOut++
	case refused:
		t.refused++
	case failedOp:
		t.failed++
	}
}

// decidedFrac is decided items over attempted items: timeouts, refusals
// and failed operations all count as undecided.
func (t tally) decidedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.decided) / float64(t.attempted)
}

// tailPercentiles is the ladder a workload's tail percentile is drawn from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailMinBeyond is how many items must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// beyond counts the items strictly past the nearest-rank p-th percentile
// of n items.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// highestTail returns the highest percentile of the ladder that has at
// least tailMinBeyond of n items beyond it, or false when n is too small.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= tailMinBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// tail is a reported tail latency.
type tail struct {
	P      float64 // percentile
	Value  float64
	Beyond int // items past it
	N      int // items measured
}

// tailLatency reports the nearest-rank p-th percentile of xs. A workload
// fixes p at the highest percentile its sized item count supports, so a
// faster program (more items in the same time) keeps reporting the same
// percentile; a run with too few items for p falls back to the highest
// percentile it can support. ok is false when no percentile has
// tailMinBeyond items beyond it.
func tailLatency(xs []float64, p float64) (tail, bool) {
	n := len(xs)
	if beyond(n, p) < tailMinBeyond {
		var ok bool
		if p, ok = highestTail(n); !ok {
			return tail{N: n}, false
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	return tail{P: p, Value: s[rank-1], Beyond: n - rank, N: n}, true
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d items, %d beyond", t.P, t.N, t.Beyond)
}

// deciles renders the 10th..90th percentiles of xs for the report.
func deciles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := ""
	for p := 10; p < 100 && len(s) > 0; p += 10 {
		out += fmt.Sprintf(" p%d=%.1f", p, s[(p*len(s)-1)/100])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mix64 is SplitMix64's finaliser, used to derive independent seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deriveSeed maps (workload seed, stream, index) to a positive solver
// seed; 0 is avoided because it selects the engines' default trajectory.
func deriveSeed(seed int64, stream, i int) int64 {
	s := int64(mix64(uint64(seed)*0x100000001b3^uint64(stream)<<32^uint64(i)) >> 2)
	if s == 0 {
		s = 1
	}
	return s
}

// scaleTo scales a CPU time measured over a timed phase of length timed
// to a phase of exactly budget: runs end on whole passes, so their timed
// phases overshoot the budget by different amounts.
func scaleTo(cpu, timed, budget time.Duration) float64 {
	if timed <= 0 {
		return 0
	}
	return cpu.Seconds() / timed.Seconds() * budget.Seconds()
}

// endToEndMetrics sets the untraced run's metrics from its item
// latencies (ms), timed-phase length, CPU time and per-pass peaks.
func endToEndMetrics(e *env, rep *report, lats []float64, timed, cpu time.Duration, peaks []float64, tailP float64) {
	rep.set("items_per_s", float64(len(lats))/timed.Seconds(), "1/s")
	rep.set("latency_p50_ms", perf.Median(lats), "ms")
	e.logf("latency deciles (ms):%s", deciles(lats))
	if t, ok := tailLatency(lats, tailP); ok {
		rep.set("latency_tail_ms", t.Value, "ms")
		e.logf("latency_tail_ms: %s", t)
	}
	rep.set("decided_frac", rep.decidedFrac(), "ratio")
	rep.set("peak_rss_mb", perf.Median(peaks), "MB")
	rep.set("cpu_s", scaleTo(cpu, timed, e.seconds), "s")
}

// setupRepeats bounds the set-up samples of a setupTimer.
const setupRepeats = 9

// setupTimer times a workload's set-up once up front and then again
// between timed items, at setupRepeats evenly spaced marks of the timed
// phase. Samples taken within a second of each other share the machine's
// speed at that moment, which on a shared machine drifts from minute to
// minute; spread over the run, their median averages over the same
// conditions as the timed figures. No sample falls inside the timed
// phase.
type setupTimer[T any] struct {
	fn     func() (T, error)
	budget time.Duration
	secs   []float64
}

func (s *setupTimer[T]) take() (T, error) {
	start := time.Now()
	v, err := s.fn()
	s.secs = append(s.secs, time.Since(start).Seconds())
	return v, err
}

// due takes the next sample once the timed phase has passed its mark.
func (s *setupTimer[T]) due(timed time.Duration) error {
	if len(s.secs) >= setupRepeats || timed < s.budget*time.Duration(len(s.secs))/setupRepeats {
		return nil
	}
	_, err := s.take()
	return err
}

func (s *setupTimer[T]) median() float64 { return perf.Median(s.secs) }
