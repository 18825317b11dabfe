package cdcl

import (
	"context"
	"sort"
)

// clause is a disjunction of literals. Watched literals are lits[0] and
// lits[1].
type clause struct {
	lits   []lit
	act    float64
	learnt bool
}

// card is an at-most-k constraint over literals: sum(lits true) <= k.
// count tracks how many literals are currently true.
type card struct {
	lits  []lit
	k     int
	count int
}

type watcher struct {
	c       *clause
	blocker lit
}

// solver is the CDCL core. It is not safe for concurrent use.
type solver struct {
	nVars int
	ok    bool // false once a top-level conflict is derived

	clauses []*clause
	learnts []*clause
	cards   []*card

	// watches[l] lists clauses watching literal l, inspected when l
	// becomes false.
	watches [][]watcher
	// cardOcc[l] lists cards containing literal l.
	cardOcc [][]int32

	assigns  []lbool
	level    []int32
	reasonCl []*clause
	reasonCd []int32
	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	phase    []bool
	seen     []bool

	claInc     float64
	maxLearnts int

	// Diversification parameters. The defaults reproduce the historical
	// single-threaded search exactly; the parallel engine varies them per
	// worker so that the gang explores genuinely different trajectories
	// (ManySAT-style portfolio diversification).
	varDecay     float64 // VSIDS decay: varInc /= varDecay per conflict
	restartScale int64   // Luby restart unit, in conflicts

	// Clause-sharing hooks (nil for the sequential engine). onLearn is
	// invoked with every learnt clause, immediately after conflict
	// analysis; the callee must copy the slice if it retains it (the
	// solver reorders a clause's literals as watches move). onRestart is
	// invoked at every restart boundary with the trail at level 0; it
	// returns false when an imported clause produced a top-level
	// conflict, proving the formula unsatisfiable.
	onLearn   func(lits []lit)
	onRestart func() bool

	// Conflict-analysis scratch, reused across conflicts and restarts
	// (the learnt clause itself is copied out exactly sized, so these
	// grow to the working-set high-water mark once and then allocate
	// nothing per conflict).
	learntBuf []lit
	origBuf   []lit
	reasonBuf []lit
	minBuf    []lit

	conflicts, decisions, propagations, restarts int64
}

func newSolver(nVars int) *solver {
	s := &solver{
		nVars:        nVars,
		ok:           true,
		watches:      make([][]watcher, 2*nVars),
		cardOcc:      make([][]int32, 2*nVars),
		assigns:      make([]lbool, nVars),
		level:        make([]int32, nVars),
		reasonCl:     make([]*clause, nVars),
		reasonCd:     make([]int32, nVars),
		activity:     make([]float64, nVars),
		phase:        make([]bool, nVars),
		seen:         make([]bool, nVars),
		varInc:       1,
		claInc:       1,
		maxLearnts:   20000,
		varDecay:     0.95,
		restartScale: 100,
	}
	for i := range s.reasonCd {
		s.reasonCd[i] = -1
	}
	s.heap.init(s)
	return s
}

func (s *solver) decisionLevel() int { return len(s.trailLim) }

func (s *solver) value(l lit) lbool { return valueOf(s.assigns, l) }

// enqueue assigns literal l true with the given reason. It must only be
// called when l is unassigned. Card counters are maintained here (and in
// cancelUntil) so that they stay balanced even for literals that are
// enqueued but never reached by the propagation head before a conflict.
func (s *solver) enqueue(l lit, rc *clause, rd int32) {
	v := l.vi()
	if l.sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reasonCl[v] = rc
	s.reasonCd[v] = rd
	s.trail = append(s.trail, l)
	for _, ci := range s.cardOcc[l] {
		s.cards[ci].count++
	}
}

// addFact enqueues a top-level unit fact; returns false on conflict.
func (s *solver) addFact(l lit) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		s.ok = false
		return false
	}
	s.enqueue(l, nil, -1)
	return true
}

// addClause installs a clause at decision level 0. Literals already false
// at level 0 are dropped; a satisfied clause is skipped. Returns false on
// a top-level conflict.
func (s *solver) addClause(in []lit) bool {
	if !s.ok {
		return false
	}
	lits := make([]lit, 0, len(in))
	for _, l := range in {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, m := range lits {
			if m == l {
				dup = true
				break
			}
			if m == l.neg() {
				return true // tautology
			}
		}
		if !dup {
			lits = append(lits, l)
		}
	}
	switch len(lits) {
	case 0:
		s.ok = false
		return false
	case 1:
		return s.addFact(lits[0])
	}
	c := &clause{lits: lits}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// addAtMost installs sum(lits) <= k at decision level 0, simplifying
// against the current top-level assignment. Returns false on a top-level
// conflict. Literals must be over distinct variables.
func (s *solver) addAtMost(in []lit, k int) bool {
	if !s.ok {
		return false
	}
	lits := make([]lit, 0, len(in))
	for _, l := range in {
		switch s.value(l) {
		case lTrue:
			k--
		case lFalse:
			// contributes 0, drop
		default:
			lits = append(lits, l)
		}
	}
	if k < 0 {
		s.ok = false
		return false
	}
	if len(lits) <= k {
		return true
	}
	if k == 0 {
		for _, l := range lits {
			if !s.addFact(l.neg()) {
				return false
			}
		}
		return true
	}
	if k == len(lits)-1 {
		// "not all true": a plain clause of negations.
		neg := make([]lit, 0, len(lits))
		for _, l := range lits {
			neg = append(neg, l.neg())
		}
		return s.addClause(neg)
	}
	c := &card{lits: lits, k: k}
	ci := int32(len(s.cards))
	s.cards = append(s.cards, c)
	for _, l := range lits {
		s.cardOcc[l] = append(s.cardOcc[l], ci)
	}
	return true
}

func (s *solver) attach(c *clause) {
	s.watches[c.lits[0]] = append(s.watches[c.lits[0]], watcher{c, c.lits[1]})
	s.watches[c.lits[1]] = append(s.watches[c.lits[1]], watcher{c, c.lits[0]})
}

// conflictRef identifies the constraint a conflict arose from: a clause
// or a card index. The zero-ish value noConflict means none — passing it
// by value keeps the propagation loop allocation-free.
type conflictRef struct {
	cl *clause
	cd int32
}

var noConflict = conflictRef{cl: nil, cd: -1}

// none reports the absence of a conflict.
func (c conflictRef) none() bool { return c.cl == nil && c.cd < 0 }

// propagate performs unit propagation over clauses and counter
// propagation over cards; it returns the conflicting constraint or
// noConflict.
func (s *solver) propagate() conflictRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++

		// Clause propagation: literal ¬p just became false.
		fl := p.neg()
		ws := s.watches[fl]
		out := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				out = append(out, w)
				continue
			}
			c := w.c
			if c.lits[0] == fl {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// Now lits[1] == fl (false).
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				out = append(out, watcher{c, first})
				continue
			}
			found := false
			for i := 2; i < len(c.lits); i++ {
				if s.value(c.lits[i]) != lFalse {
					c.lits[1], c.lits[i] = c.lits[i], c.lits[1]
					s.watches[c.lits[1]] = append(s.watches[c.lits[1]], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved
			}
			// Unit or conflict.
			out = append(out, watcher{c, first})
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers, restore list.
				out = append(out, ws[wi+1:]...)
				s.watches[fl] = out
				s.qhead = len(s.trail)
				return conflictRef{cl: c, cd: -1}
			}
			s.enqueue(first, c, -1)
		}
		s.watches[fl] = out

		// Cardinality checks: literal p just became true (its counts
		// were already bumped at enqueue time).
		for _, ci := range s.cardOcc[p] {
			c := s.cards[ci]
			if c.count > c.k {
				s.qhead = len(s.trail)
				return conflictRef{cl: nil, cd: ci}
			}
			if c.count == c.k {
				for _, l := range c.lits {
					if s.value(l) == lUndef {
						s.enqueue(l.neg(), nil, ci)
					}
				}
			}
		}
	}
	return noConflict
}

// cancelUntil backtracks to the given decision level.
func (s *solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	end := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= end; i-- {
		p := s.trail[i]
		v := p.vi()
		s.phase[v] = s.assigns[v] == lTrue
		// Trail literals are true by construction; undo their card
		// counts (mirror of enqueue).
		for _, ci := range s.cardOcc[p] {
			s.cards[ci].count--
		}
		s.assigns[v] = lUndef
		s.reasonCl[v] = nil
		s.reasonCd[v] = -1
		s.heap.push(v)
	}
	s.trail = s.trail[:end]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// reasonLits materialises the implication clause of an assigned literal p
// (p is its first element) or, with p == litUndef, of a conflicting
// constraint.
func (s *solver) reasonLits(p lit, rc *clause, rd int32, buf []lit) []lit {
	buf = buf[:0]
	if rc != nil {
		return append(buf, rc.lits...)
	}
	if p != litUndef {
		buf = append(buf, p)
	}
	for _, l := range s.cards[rd].lits {
		if s.value(l) == lTrue {
			buf = append(buf, l.neg())
		}
	}
	return buf
}

// analyze derives a first-UIP learnt clause from a conflict and returns
// it with the backjump level. learnt[0] is the asserting literal. The
// returned slice is freshly allocated at its exact final size (the
// caller stores it in a clause); all intermediate work happens in the
// solver's reusable scratch buffers.
func (s *solver) analyze(confl conflictRef) (learnt []lit, btLevel int) {
	work := append(s.learntBuf[:0], litUndef)
	pathC := 0
	p := litUndef
	idx := len(s.trail) - 1
	reason := s.reasonLits(litUndef, confl.cl, confl.cd, s.reasonBuf)

	for {
		for _, q := range reason {
			if q == p {
				continue
			}
			v := q.vi()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				work = append(work, q)
			}
		}
		for !s.seen[s.trail[idx].vi()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.vi()] = false
		pathC--
		if pathC <= 0 {
			break
		}
		v := p.vi()
		reason = s.reasonLits(p, s.reasonCl[v], s.reasonCd[v], reason)
	}
	work[0] = p.neg()
	s.reasonBuf = reason

	// Local clause minimisation: a literal is redundant when every
	// antecedent of its implication is already in the clause (or fixed
	// at level 0). seen[] still marks exactly the learnt literals'
	// variables here, which is what the check needs.
	original := append(s.origBuf[:0], work[1:]...)
	s.origBuf = original
	kept := work[:1]
	buf := s.minBuf
	for _, q := range original {
		v := q.vi()
		rc, rd := s.reasonCl[v], s.reasonCd[v]
		if rc == nil && rd < 0 {
			kept = append(kept, q) // decision literal
			continue
		}
		redundant := true
		buf = s.reasonLits(q.neg(), rc, rd, buf)
		for _, r := range buf {
			if r == q.neg() {
				continue
			}
			if !s.seen[r.vi()] && s.level[r.vi()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			kept = append(kept, q)
		}
	}
	s.minBuf = buf
	s.learntBuf = work

	// Backjump level: highest level among the other literals.
	btLevel = 0
	maxI := 1
	for i := 1; i < len(kept); i++ {
		if int(s.level[kept[i].vi()]) > btLevel {
			btLevel = int(s.level[kept[i].vi()])
			maxI = i
		}
	}
	if len(kept) > 1 {
		kept[1], kept[maxI] = kept[maxI], kept[1]
	}
	for _, l := range original {
		s.seen[l.vi()] = false
	}
	learnt = make([]lit, len(kept))
	copy(learnt, kept)
	return learnt, btLevel
}

func (s *solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *solver) decayActivities() {
	s.varInc /= s.varDecay
	s.claInc /= 0.999
}

func (s *solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether c is the reason of a current assignment.
func (s *solver) locked(c *clause) bool {
	v := c.lits[0].vi()
	return s.reasonCl[v] == c && s.assigns[v] != lUndef
}

// reduceDB removes roughly half of the least active learnt clauses.
func (s *solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act > s.learnts[j].act })
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || s.locked(c) || len(c.lits) == 2 {
			kept = append(kept, c)
			continue
		}
		s.detach(c)
	}
	s.learnts = kept
}

func (s *solver) detach(c *clause) {
	for _, l := range c.lits[:2] {
		ws := s.watches[l]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// propCheckInterval bounds how many unit propagations may pass between
// context checks. Conflict-driven checks alone (every 1024 conflicts) can
// ignore a deadline for a long time on propagation-heavy instances where
// conflicts are rare; see TestCancellationLatency.
const propCheckInterval = 100_000

// search runs the CDCL loop until SAT (lTrue), UNSAT (lFalse) or context
// cancellation (lUndef). Cancellation is observed on three clocks:
// every 1024 conflicts, every ~100k propagations, and at every restart.
func (s *solver) search(ctx context.Context) lbool {
	if !s.ok {
		return lFalse
	}
	if ctx.Err() != nil {
		return lUndef
	}
	restartIdx := int64(0)
	conflictsSinceRestart := int64(0)
	restartBudget := luby(1) * s.restartScale
	nextPropCheck := s.propagations + propCheckInterval
	// A search start is a restart boundary too: pick up clauses shared
	// by workers that got ahead before this one finished compiling.
	if s.onRestart != nil && !s.onRestart() {
		s.ok = false
		return lFalse
	}

	for {
		confl := s.propagate()
		if s.propagations >= nextPropCheck {
			nextPropCheck = s.propagations + propCheckInterval
			if ctx.Err() != nil {
				return lUndef
			}
		}
		if !confl.none() {
			s.conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return lFalse
			}
			learnt, bt := s.analyze(confl)
			if s.onLearn != nil {
				s.onLearn(learnt)
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				if !s.addFact(learnt[0]) {
					return lFalse
				}
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.enqueue(learnt[0], c, -1)
			}
			s.decayActivities()
			if s.conflicts%1024 == 0 && ctx.Err() != nil {
				return lUndef
			}
			continue
		}

		if conflictsSinceRestart >= restartBudget {
			restartIdx++
			conflictsSinceRestart = 0
			restartBudget = luby(restartIdx+1) * s.restartScale
			s.restarts++
			s.cancelUntil(0)
			if len(s.learnts) > s.maxLearnts {
				s.reduceDB()
			}
			if s.onRestart != nil && !s.onRestart() {
				s.ok = false
				return lFalse
			}
			if ctx.Err() != nil {
				return lUndef
			}
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return lTrue // all variables assigned, no conflict
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(mkLit(v, !s.phase[v]), nil, -1)
	}
}

func (s *solver) pickBranchVar() int {
	for {
		v := s.heap.popMax()
		if v < 0 {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// modelValue returns the value of variable v in the satisfying
// assignment; valid immediately after search returns lTrue.
func (s *solver) modelValue(v int) bool { return s.assigns[v] == lTrue }

// varHeap is a max-heap over variable activities with lazy re-insertion.
type varHeap struct {
	s    *solver
	heap []int32
	pos  []int32
}

func (h *varHeap) init(s *solver) {
	h.s = s
	h.pos = make([]int32, s.nVars)
	h.heap = make([]int32, 0, s.nVars)
	for v := 0; v < s.nVars; v++ {
		h.pos[v] = int32(v)
		h.heap = append(h.heap, int32(v))
	}
}

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// push re-inserts a variable (no-op if present).
func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.up(len(h.heap) - 1)
}

// popMax removes and returns the most active variable, or -1.
func (h *varHeap) popMax() int {
	if len(h.heap) == 0 {
		return -1
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return int(v)
}

// update restores heap order after an activity bump of v.
func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
	}
}
