// Package portfolio implements a resilient solve orchestrator for CGRA
// mapping: it races several strategies — the CDCL engine, CDCL with
// randomized branching seeds, LP branch-and-bound, and the
// simulated-annealing heuristic — in parallel goroutines under a shared
// deadline, returns the first definitive answer (a verified feasible
// mapping or an infeasibility proof) and cancels the losers.
//
// The orchestrator is built to degrade gracefully rather than fail:
//
//   - every strategy attempt runs inside a panic-containment wrapper, so
//     a buggy or fault-injected engine becomes a Status: Unknown report
//     (with the recovered stack attached) instead of killing a sweep;
//   - each strategy has an attempt budget with backoff-and-reseed
//     retries, so transient stalls, panics and injected faults are
//     retried on a fresh search trajectory;
//   - when every exact engine times out, a feasible annealing answer is
//     still returned, clearly labelled as a heuristic witness with no
//     optimality or infeasibility proof (the degradation order is exact
//     → reseeded exact → heuristic);
//   - when nothing is definitive, the result is Status: Unknown with a
//     per-strategy post-mortem, never an orchestrator crash.
//
// This mirrors how later exact mappers (Walker & Anderson's
// connectivity-based ILP, SAT-MapIt) stay usable on NP-hard instances:
// solver time limits plus staged fallbacks, here generalised to a
// portfolio race.
package portfolio

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cgramap/internal/anneal"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/bb"
	"cgramap/internal/solve/cdcl"
)

// Options configures the orchestrator. The zero value races the default
// strategy set with a 3-attempt budget per strategy.
type Options struct {
	// Timeout bounds the whole race; 0 relies on the caller's context
	// deadline alone.
	Timeout time.Duration
	// Attempts is the per-strategy attempt budget: an attempt that
	// panics, errors, or ends Unknown is retried on a fresh seed after
	// a backoff, up to this many times (default 3).
	Attempts int
	// Backoff is the base delay between a strategy's attempts; the k-th
	// retry waits k*Backoff (default 10ms).
	Backoff time.Duration
	// ReseededRacers is how many extra CDCL strategies race with
	// randomized branching seeds (default 1).
	ReseededRacers int
	// DisableFallback drops the annealing strategy, leaving only exact
	// engines.
	DisableFallback bool
	// DisableBB drops the LP branch-and-bound strategy.
	DisableBB bool
	// Anneal parameterises the heuristic fallback.
	Anneal anneal.Options
	// Mapper carries the formulation and solve options. Mapper.Seed
	// drives every derived reseed (0 selects 1), and Mapper.Workers > 1
	// adds a clause-sharing parallel CDCL gang of that width
	// ("cdcl-par") to the race, paying its extra workers from
	// Mapper.Budget (nil selects the process-wide pool) so the strategy
	// narrows rather than oversubscribes when the machine is busy. The
	// Solver and MapWith fields are ignored: the portfolio chooses
	// engines itself.
	Mapper mapper.Options
	// WrapSolver, when non-nil, decorates each exact strategy's engine
	// before use — the seam the fault-injection harness plugs into.
	WrapSolver func(strategy string, s ilp.Solver) ilp.Solver
}

func (o *Options) fill() {
	if o.Attempts == 0 {
		o.Attempts = 3
	}
	if o.Backoff == 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.Mapper.Seed == 0 {
		o.Mapper.Seed = 1
	}
	if o.ReseededRacers == 0 {
		o.ReseededRacers = 1
	}
}

// Report is one strategy's post-mortem of the race.
type Report struct {
	// Strategy names the engine ("cdcl", "cdcl-rand1", "bb", "anneal").
	Strategy string
	// Attempts counts how many attempts ran (>= 1 unless the race ended
	// before the strategy's first attempt started).
	Attempts int
	// Status is the last solve status the strategy reached.
	Status ilp.Status
	// Panics counts contained panics; LastPanic holds the final
	// recovered value with its stack, truncated.
	Panics    int
	LastPanic string
	// Err is the last non-panic error, if any.
	Err string
	// Cancelled reports that the strategy observed the shared race
	// context ending (because another strategy won, or the deadline
	// passed) before producing a definitive answer.
	Cancelled bool
	// Winner marks the strategy whose answer was returned.
	Winner bool
	// Elapsed is the strategy's wall-clock time in the race.
	Elapsed time.Duration
}

// Result is a portfolio mapping outcome.
type Result struct {
	// Result is the winning answer (or a Status: Unknown summary when
	// no strategy was definitive). A heuristic win carries its label in
	// Reason.
	*mapper.Result
	// Winner names the strategy whose answer was returned; empty when
	// nothing was definitive.
	Winner string
	// Proven is true when the answer came from an exact engine (an
	// infeasibility proof, or a mapping found by a complete search). A
	// heuristic win is a verified witness but proves nothing beyond
	// feasibility, and a heuristic non-answer proves nothing at all.
	Proven bool
	// Reports collects every strategy's post-mortem, sorted by name.
	Reports []Report
}

// Degraded reports that the answer came from the heuristic fallback.
func (r *Result) Degraded() bool { return r.Winner == annealStrategy }

const annealStrategy = "anneal"

// strategy is one racer: name plus an attempt runner. run must honour
// ctx and may be called multiple times with increasing attempt numbers.
type strategy struct {
	name string
	run  func(ctx context.Context, attempt int) (*mapper.Result, error)
}

// outcome is what a strategy goroutine sends back when it exits.
type outcome struct {
	report Report
	res    *mapper.Result // non-nil only for a definitive answer
}

// deriveSeed mixes the base seed with a strategy and attempt index into
// a non-zero seed for an independent trajectory.
func deriveSeed(base int64, strat, attempt int) int64 {
	h := uint64(base) + uint64(strat+1)*0x9E3779B97F4A7C15 + uint64(attempt+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	if h == 0 {
		h = 1
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// strategies assembles the racer set for one Map call.
func strategies(g *dfg.Graph, mg *mrrg.Graph, opts Options) []strategy {
	wrap := opts.WrapSolver
	if wrap == nil {
		wrap = func(_ string, s ilp.Solver) ilp.Solver { return s }
	}
	mo := opts.Mapper
	mo.MapWith = nil

	exact := func(name string, mk func(attempt int) ilp.Solver) strategy {
		return strategy{name: name, run: func(ctx context.Context, attempt int) (*mapper.Result, error) {
			o := mo
			o.Solver = wrap(name, mk(attempt))
			return mapper.Map(ctx, g, mg, o)
		}}
	}

	sts := []strategy{
		// The deterministic default trajectory first; its retries
		// reseed (backoff-and-reseed for transient stalls).
		exact("cdcl", func(attempt int) ilp.Solver {
			if attempt == 0 {
				return cdcl.New()
			}
			return cdcl.NewSeeded(deriveSeed(mo.Seed, 0, attempt))
		}),
	}
	for k := 1; k <= opts.ReseededRacers; k++ {
		k := k
		sts = append(sts, exact(fmt.Sprintf("cdcl-rand%d", k), func(attempt int) ilp.Solver {
			return cdcl.NewSeeded(deriveSeed(mo.Seed, k, attempt))
		}))
	}
	if mo.Workers > 1 {
		idx := len(sts)
		sts = append(sts, exact("cdcl-par", func(attempt int) ilp.Solver {
			seed := mo.Seed
			if attempt > 0 {
				seed = deriveSeed(mo.Seed, idx, attempt)
			}
			pe := cdcl.NewParallel(mo.Workers, seed)
			pe.Budget = mo.Budget
			return pe
		}))
	}
	if !opts.DisableBB {
		sts = append(sts, exact("bb", func(int) ilp.Solver { return bb.New() }))
	}
	if !opts.DisableFallback {
		idx := len(sts)
		sts = append(sts, strategy{name: annealStrategy, run: func(ctx context.Context, attempt int) (*mapper.Result, error) {
			ao := opts.Anneal
			ao.Seed = deriveSeed(mo.Seed, idx, attempt)
			return mapAnneal(ctx, g, mg, ao)
		}})
	}
	return sts
}

// heuristicWitness labels every mapping the annealer finds.
const heuristicWitness = "heuristic (simulated annealing) witness; no optimality or infeasibility proof"

// mapAnneal runs the annealer and reports its outcome as a mapper
// result. A found mapping carries the heuristicWitness label; a miss is
// Unknown, never an infeasibility proof, and says so.
func mapAnneal(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, ao anneal.Options) (*mapper.Result, error) {
	start := time.Now()
	res, err := anneal.Map(ctx, g, mg, ao)
	if err != nil {
		return nil, err
	}
	out := &mapper.Result{
		Status:      res.Status,
		Reason:      "heuristic (simulated annealing) found no mapping; no infeasibility proof",
		SolverStats: res.Stats,
		SolveTime:   time.Since(start),
	}
	if res.Feasible {
		out.Mapping = res.Mapping
		out.Reason = heuristicWitness
	}
	return out, nil
}

// Proven reports whether res is a proof: a definitive answer that did
// not come from the annealer.
func Proven(res *mapper.Result) bool {
	return res.Status != ilp.Unknown && res.Reason != heuristicWitness
}

// runContained executes one attempt with panic containment. A panic is
// reported as a message (recovered value plus truncated stack) instead
// of unwinding into the race.
func runContained(fn func() (*mapper.Result, error)) (res *mapper.Result, err error, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, nil
			stack := debug.Stack()
			if len(stack) > 4096 {
				stack = stack[:4096]
			}
			panicMsg = fmt.Sprintf("%v\n%s", r, stack)
		}
	}()
	res, err = fn()
	return res, err, ""
}

// definitive reports whether a strategy result decides the instance: a
// feasible mapping or an infeasibility proof. Unknown (timeout, stall,
// heuristic miss) keeps the race open.
func definitive(res *mapper.Result) bool {
	return res != nil && res.Status != ilp.Unknown
}

// race runs one strategy's attempt loop and reports its fate.
func race(ctx context.Context, st strategy, opts Options) outcome {
	rep := Report{Strategy: st.name}
	start := time.Now()
	var won *mapper.Result
	for attempt := 0; attempt < opts.Attempts && ctx.Err() == nil; attempt++ {
		rep.Attempts++
		res, err, panicMsg := runContained(func() (*mapper.Result, error) {
			return st.run(ctx, attempt)
		})
		switch {
		case panicMsg != "":
			rep.Panics++
			rep.LastPanic = panicMsg
			rep.Status = ilp.Unknown
		case err != nil:
			rep.Err = err.Error()
			rep.Status = ilp.Unknown
		default:
			rep.Status = res.Status
			if definitive(res) {
				won = res
			}
		}
		if won != nil {
			break
		}
		if attempt+1 < opts.Attempts {
			// Back off before reseeding, without outliving the race.
			t := time.NewTimer(time.Duration(attempt+1) * opts.Backoff)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
	}
	rep.Elapsed = time.Since(start)
	rep.Cancelled = ctx.Err() != nil && won == nil
	return outcome{report: rep, res: won}
}

// Map places and routes g onto mg by racing the portfolio's strategies.
// It never returns an error for solver-level failures (panics, stalls,
// corrupted solutions): those are contained, retried, and ultimately
// reported as a Status: Unknown result with per-strategy post-mortems.
func Map(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts Options) (*Result, error) {
	opts.fill()
	raceCtx := ctx
	cancel := context.CancelFunc(func() {})
	if opts.Timeout > 0 {
		raceCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		raceCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	sts := strategies(g, mg, opts)
	outcomes := make(chan outcome, len(sts))
	for _, st := range sts {
		st := st
		go func() { outcomes <- race(raceCtx, st, opts) }()
	}

	var winner *mapper.Result
	winnerName := ""
	reports := make([]Report, 0, len(sts))
	for range sts {
		// Collect every strategy: this both gathers complete reports
		// and guarantees the losers observed cancellation before Map
		// returns (no goroutine outlives the call).
		o := <-outcomes
		if o.res != nil && winner == nil {
			winner = o.res
			winnerName = o.report.Strategy
			o.report.Winner = true
			cancel()
		}
		reports = append(reports, o.report)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Strategy < reports[j].Strategy })

	if winner != nil {
		return &Result{
			Result:  winner,
			Winner:  winnerName,
			Proven:  Proven(winner),
			Reports: reports,
		}, nil
	}
	return &Result{
		Result: &mapper.Result{
			Status: ilp.Unknown,
			Reason: "portfolio: no strategy decided the instance — " + summarize(reports),
		},
		Reports: reports,
	}, nil
}

// summarize renders a compact per-strategy post-mortem for the Unknown
// result's Reason.
func summarize(reports []Report) string {
	parts := make([]string, 0, len(reports))
	for _, r := range reports {
		detail := r.Status.String()
		switch {
		case r.Panics > 0:
			detail = fmt.Sprintf("panicked x%d", r.Panics)
		case r.Err != "":
			detail = "error: " + firstLine(r.Err)
		case r.Cancelled:
			detail = "cancelled"
		}
		parts = append(parts, fmt.Sprintf("%s: %s after %d attempt(s)", r.Strategy, detail, r.Attempts))
	}
	return strings.Join(parts, "; ")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// MapFunc adapts the portfolio to the mapper.MapFunc seam, for slotting
// into mapper.Options.MapWith (MapAuto, the experiment sweeps, the
// CLIs). The formulation options of each dispatch call override
// opts.Mapper; the portfolio's racing parameters come from opts.
func MapFunc(opts Options) mapper.MapFunc {
	return func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, mo mapper.Options) (*mapper.Result, error) {
		o := opts
		o.Mapper = mo
		res, err := Map(ctx, g, mg, o)
		if err != nil {
			return nil, err
		}
		return res.Result, nil
	}
}

// Resolve returns opts with the named engine selected, the one place
// engine names are read:
//
//   - cdcl: the CDCL engine (a seeded trajectory or a clause-sharing
//     gang, per opts.Seed and opts.Workers);
//   - bb: LP branch-and-bound;
//   - portfolio: a race of every engine (MapFunc), degrading to an
//     annealing witness only when heuristics is true;
//   - anneal: the simulated-annealing heuristic, seeded from opts.Seed.
//
// heuristics says whether a heuristic answer may stand. Auto-II
// ladders pass false, since a heuristic miss at some II proves nothing
// about it; anneal is then rejected.
func Resolve(engine string, heuristics bool, opts mapper.Options) (mapper.Options, error) {
	opts.Solver, opts.MapWith = nil, nil
	switch engine {
	case "cdcl":
	case "bb":
		opts.Solver = bb.New()
	case "portfolio":
		opts.MapWith = MapFunc(Options{DisableFallback: !heuristics})
	case annealStrategy:
		if !heuristics {
			return opts, fmt.Errorf("engine %q is a heuristic, but this run requires an exact engine (a heuristic cannot prove an II minimal)", engine)
		}
		opts.MapWith = func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, mo mapper.Options) (*mapper.Result, error) {
			return mapAnneal(ctx, g, mg, anneal.Options{Seed: mo.Seed})
		}
	default:
		return opts, fmt.Errorf("unknown engine %q", engine)
	}
	return opts, nil
}
