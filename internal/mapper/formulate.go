package mapper

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
)

// The formulation pipeline is split in two phases:
//
//   - Template (per DFG + architecture): everything independent of the
//     initiation interval — DFG validation, per-operation legal
//     primitive sets, the counting-presolve data, and the
//     modulo-scheduling lower bound MII. Built once, reused across the
//     whole auto-II ladder (and, through an ArtifactCache, across
//     requests).
//   - Stamp (per II): emits the ilp.Model for one context count from
//     the template, working out of pooled scratch buffers so the hot
//     path of an II sweep allocates only the model it produces.
//
// There is exactly one code path: a "scratch" formulation is a freshly
// built template stamped once, so a stamped model is byte-identical to
// a scratch one by construction (the CI equivalence job pins this).

// formulation is the ILP model of one mapping instance, plus the
// variable maps needed to decode a solution.
type formulation struct {
	g  *dfg.Graph
	mg *mrrg.Graph

	model *ilp.Model

	// fvar[opID][fuNode] is the placement variable F_{p,q}.
	fvar []map[int]ilp.Var
	// r2[valID][routeNode] is the value-level routing variable R_{i,j}.
	r2 []map[int]ilp.Var
	// r3[valID][sinkIdx][routeNode] is the sink-level routing variable
	// R_{i,j,k}. Its key set is the sub-value's allowed node set.
	r3 [][]map[int]ilp.Var

	// infeasible holds a human-readable reason when the instance was
	// proven infeasible during construction (presolve / pruning).
	infeasible string

	// countedVars is the F, R3 and R2 variable count worked out before
	// any variable was created; symmetry aux variables come on top.
	countedVars int
}

// kindSlots is the counting-presolve data for one operation kind.
type kindSlots struct {
	kind dfg.Kind
	// ops is the number of operations of this kind in the DFG.
	ops int
	// iis lists the initiation intervals of the FU primitives that
	// support the kind: at context count N each such primitive
	// contributes N/ii execution slots.
	iis []int
}

// Template is the II-independent half of the ILP formulation for one
// (DFG, architecture) pair. It is immutable after construction and safe
// for concurrent stamping: speculative II lanes and portfolio retries
// may call Stamp simultaneously, each drawing its own scratch from the
// pool.
type Template struct {
	g *dfg.Graph

	objective       ObjectiveMode
	disablePruning  bool
	disablePresolve bool

	// infeasible records an II-independent infeasibility: an operation
	// kind no functional unit supports. Every stamp at any II returns
	// it unchanged.
	infeasible string

	// legalPrim[opID][prim] reports whether the architecture primitive
	// may host the operation (constraint 3 data, lifted from MRRG nodes
	// to primitives — every context replica of a primitive has the same
	// operation set). Rows are shared between operations of one kind.
	legalPrim [][]bool

	// kinds carries the counting-presolve data, sorted by kind so
	// infeasibility messages are deterministic.
	kinds []kindSlots
	// fuIIs lists the initiation intervals of all FU primitives: at
	// context count N the device has Σ N/ii functional-unit slots.
	fuIIs []int

	// mii is the modulo-scheduling lower bound max(ResMII, RecMII)
	// computed once on a single-context device model; 0 when the bound
	// is unavailable (exotic architectures).
	mii int

	// symmetry enables symmetry-breaking constraint emission; syms,
	// anchorOp and valueSwaps carry the II-independent analysis
	// (symmetry.go). syms may be nil or trivial when the fabric has no
	// verified automorphisms — value swaps are emitted regardless.
	symmetry   bool
	syms       *arch.Symmetries
	anchorOp   int
	valueSwaps [][2]int

	// approxBytes estimates the retained size for artifact-cache
	// capacity accounting.
	approxBytes int64

	// hintVars/hintCons/hintTerms remember the largest model any stamp
	// of this template has produced, so repeat stamps (the warm half of
	// an II ladder) pre-size the model's backing arrays instead of
	// growing them append by append. Capacity only — reservation never
	// changes the emitted model.
	hintVars, hintCons, hintTerms atomic.Int64

	scratch sync.Pool // *stamper
}

// NewTemplate performs the II-independent analysis for mapping g onto
// the architecture. The architecture's Contexts field is irrelevant:
// one template serves every II. When opts.Artifacts is set, the
// single-context device model needed for the MII bound comes from the
// cache.
func NewTemplate(g *dfg.Graph, a *arch.Arch, opts Options) (*Template, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: invalid DFG: %w", err)
	}
	t := &Template{
		g:               g,
		objective:       opts.Objective,
		disablePruning:  opts.DisablePruning,
		disablePresolve: opts.DisablePresolve,
	}

	// Per-kind legal primitive sets and presolve data.
	kindMask := make(map[dfg.Kind][]bool)
	kindIIs := make(map[dfg.Kind][]int)
	opsOf := make(map[dfg.Kind]int)
	for _, p := range a.Prims {
		if len(p.Ops) == 0 {
			continue // routing primitive
		}
		t.fuIIs = append(t.fuIIs, p.II)
	}
	t.legalPrim = make([][]bool, g.NumOps())
	for _, op := range g.Ops() {
		opsOf[op.Kind]++
		mask, ok := kindMask[op.Kind]
		if !ok {
			mask = make([]bool, len(a.Prims))
			any := false
			for i, p := range a.Prims {
				if p.SupportsOp(op.Kind) {
					mask[i] = true
					kindIIs[op.Kind] = append(kindIIs[op.Kind], p.II)
					any = true
				}
			}
			if !any {
				mask = nil
			}
			kindMask[op.Kind] = mask
		}
		if mask == nil && t.infeasible == "" {
			t.infeasible = fmt.Sprintf("no functional unit supports operation %s (%s)", op.Name, op.Kind)
		}
		t.legalPrim[op.ID] = mask
	}
	if t.infeasible != "" {
		return t, nil
	}
	for k, n := range opsOf {
		t.kinds = append(t.kinds, kindSlots{kind: k, ops: n, iis: kindIIs[k]})
	}
	sort.Slice(t.kinds, func(i, j int) bool { return t.kinds[i].kind < t.kinds[j].kind })

	// Retained-size estimate for artifact-cache accounting: one shared
	// legality row per distinct kind, a row header per operation, and
	// the presolve tables.
	t.approxBytes = int64(len(kindMask))*int64(len(a.Prims)) +
		int64(g.NumOps())*24 + int64(len(t.fuIIs))*8 + int64(len(t.kinds))*40 + 256

	if opts.Symmetry == SymmetryOn {
		t.initSymmetry(a)
	}
	if !opts.DisablePresolve {
		t.computeMII(a, opts)
	}
	return t, nil
}

// computeMII evaluates the modulo-scheduling lower bound once, on a
// single-context device model (cached when an ArtifactCache is
// available).
func (t *Template) computeMII(a *arch.Arch, opts Options) {
	single := *a
	single.Contexts = 1
	var mg1 *mrrg.Graph
	var err error
	if opts.Artifacts != nil {
		mg1, err = opts.Artifacts.MRRG(&single)
	} else {
		mg1, err = mrrg.Generate(&single)
	}
	if err != nil {
		return // exotic architecture (e.g. II>1 units); skip the bound
	}
	if mii, err := sched.MII(t.g, mg1); err == nil {
		t.mii = mii
	}
}

// BuildModel stamps the ILP model for one context count. It returns the
// model (nil when the stamp already proved infeasibility, together with
// the reason).
func (t *Template) BuildModel(mg *mrrg.Graph) (*ilp.Model, string, error) {
	f, err := t.stamp(mg)
	if err != nil {
		return nil, "", err
	}
	if f.infeasible != "" {
		return nil, f.infeasible, nil
	}
	return f.model, "", nil
}

// stamper holds the per-stamp state and the reusable scratch buffers.
// One stamper serves one Stamp call at a time; the template's pool
// recycles them across calls (and across concurrent lanes).
type stamper struct {
	t  *Template
	mg *mrrg.Graph
	f  *formulation

	// legal[opID] lists the FuncUnit node IDs the operation may be
	// placed on, carved from legalArena (constraint 3 by variable
	// omission: illegal F variables are never created).
	legal [][]int

	// terms is the constraint-builder scratch buffer: ilp.Model.Add
	// copies its input, so one buffer serves every constraint without
	// per-constraint slice allocations.
	terms []ilp.Term

	// unions[valID] marks the nodes some sub-value of the value may
	// use: its R2 variables. The stamp walks routing variables through
	// these and the allowed sets, in node order, never through the
	// routing-variable maps. Map iteration order must never reach the
	// model: variable numbering and constraint order would then vary
	// run to run, and with them the solver's entire search path —
	// seeded runs have to be reproducible across processes.
	unions [][]bool

	queue      []int
	fwd, bwd   []bool
	legalArena []int
	// boolArena backs the per-sub-value allowed route sets; boolUsed
	// tracks the high-water mark that must be re-zeroed before reuse.
	boolArena []bool
	boolUsed  int

	// r3Vars and r2Vars count the routing variables computeAllowed's
	// sets call for: the true entries of every sub-value's set, and of
	// every value's union.
	r3Vars, r2Vars int
}

// stamp emits the formulation for one context count. On success, either
// f.infeasible is non-empty or f.model is ready to solve.
func (t *Template) stamp(mg *mrrg.Graph) (*formulation, error) {
	f := &formulation{g: t.g, mg: mg}
	if t.infeasible != "" {
		f.infeasible = t.infeasible
		return f, nil
	}
	s, _ := t.scratch.Get().(*stamper)
	if s == nil {
		s = &stamper{}
	}
	s.t, s.mg, s.f = t, mg, f
	err := s.run()
	// Release the scratch for the next stamp; the formulation keeps
	// only the model and the decode maps, never arena-backed slices.
	s.t, s.mg, s.f = nil, nil, nil
	t.scratch.Put(s)
	return f, err
}

func (s *stamper) run() error {
	t, f := s.t, s.f
	f.model = ilp.NewModel(fmt.Sprintf("map-%s-onto-%s", t.g.Name, s.mg.Arch.Name))

	s.computeLegal()
	if !t.disablePresolve {
		if s.pigeonhole(); f.infeasible != "" {
			return nil
		}
		if t.mii > s.mg.Contexts {
			f.infeasible = fmt.Sprintf("minimum initiation interval %d exceeds the %d available contexts", t.mii, s.mg.Contexts)
			return nil
		}
	}

	allowed := s.computeAllowed()
	if f.infeasible != "" {
		return nil
	}
	if !t.disablePruning {
		if s.refineLegal(allowed); f.infeasible != "" {
			return nil
		}
	}

	f.countedVars = s.r3Vars + s.r2Vars
	for _, l := range s.legal {
		f.countedVars += len(l)
	}
	if n := t.hintVars.Load(); n > 0 {
		f.model.Reserve(int(n), int(t.hintCons.Load()), int(t.hintTerms.Load()))
	} else {
		f.model.Reserve(s.coldSize(f.countedVars))
	}
	s.createVars(allowed)
	s.addPlacementConstraints()
	s.addRoutingConstraints(allowed)
	if t.symmetry {
		s.addSymmetryConstraints()
	}
	if t.objective == MinimizeRouting {
		for j, union := range s.unions {
			for i, ok := range union {
				if ok {
					f.model.Objective = append(f.model.Objective,
						ilp.Term{Var: f.r2[j][i], Coef: s.mg.Nodes[i].Cost})
				}
			}
		}
	}
	if err := f.model.Validate(); err != nil {
		return err
	}
	terms := 0
	for i := range f.model.Constraints {
		terms += len(f.model.Constraints[i].Terms)
	}
	storeMax(&t.hintVars, int64(f.model.NumVars()))
	storeMax(&t.hintCons, int64(len(f.model.Constraints)))
	storeMax(&t.hintTerms, int64(terms))
	return nil
}

// coldSize sizes a template's first stamp, which has no hints yet, from
// the exact variable count nvars: without it the model's variable and
// constraint arrays grow append by append, allocating about five times
// their final size. The constraint count is estimated per family from
// the same counts. Placement, fanout-routing (5), resource-usage (8)
// and initial-fanout (7) rows are exact; FU exclusivity is at most one
// row per FU node; the rest (route and mux exclusivity, implied
// placement, distinct ports) measured 0.23-0.42 rows per R2 variable
// on the 8x8 export panel and is reserved at 3/4. Terms are estimated
// low (3-8% under on that panel): an overflow only starts a new
// term-arena chunk, while an overflowing constraint array is copied.
func (s *stamper) coldSize(nvars int) (vars, cons, terms int) {
	g, mg := s.t.g, s.mg
	fvars, initial := nvars-s.r3Vars-s.r2Vars, 0
	for _, v := range g.Vals() {
		initial += len(v.Uses) * len(s.legal[v.Def.ID])
	}
	cons = g.NumOps() + len(mg.FuncUnits()) + initial + 2*s.r3Vars + 3*s.r2Vars/4
	terms = 2*fvars + 2*initial + 5*s.r3Vars + s.r2Vars
	if s.t.symmetry {
		// Each lex chain has at most maxLexPositions-1 aux variables
		// and six clauses of at most four terms per position.
		chains := len(s.t.valueSwaps)
		if s.t.syms != nil {
			chains += len(s.t.syms.Gens)
		}
		nvars += chains * (maxLexPositions - 1)
		cons += 1 + chains*(1+6*(maxLexPositions-1))
		terms += chains * 4 * 6 * maxLexPositions
	}
	return nvars, cons, terms
}

// storeMax raises a to v unless a concurrent stamp already recorded a
// larger model.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// boolSlice carves a zeroed n-bool slice from the arena.
func (s *stamper) boolSlice(n int) []bool {
	if len(s.boolArena)-s.boolUsed < n {
		grown := make([]bool, 2*len(s.boolArena)+n)
		s.boolArena = grown // old segments stay alive with their owners
		s.boolUsed = 0
	}
	out := s.boolArena[s.boolUsed : s.boolUsed+n : s.boolUsed+n]
	s.boolUsed += n
	clear(out)
	return out
}

// computeLegal expands the template's per-primitive legality into
// legal[q]: every FuncUnit node supporting the operation, in MRRG node
// order (identical to testing every node, because all context replicas
// of one primitive share an operation set). An operation kind with no
// supporting primitive was already caught at template construction, so
// every list here is non-empty.
func (s *stamper) computeLegal() {
	t, mg := s.t, s.mg
	fus := mg.FuncUnits()
	total := 0
	for _, op := range t.g.Ops() {
		mask := t.legalPrim[op.ID]
		for _, p := range fus {
			if mask[mg.Nodes[p].Prim] {
				total++
			}
		}
	}
	if cap(s.legalArena) < total {
		s.legalArena = make([]int, 0, total)
	}
	arena := s.legalArena[:0]
	if cap(s.legal) < t.g.NumOps() {
		s.legal = make([][]int, t.g.NumOps())
	}
	s.legal = s.legal[:t.g.NumOps()]
	for _, op := range t.g.Ops() {
		mask := t.legalPrim[op.ID]
		start := len(arena)
		for _, p := range fus {
			if mask[mg.Nodes[p].Prim] {
				arena = append(arena, p)
			}
		}
		s.legal[op.ID] = arena[start:len(arena):len(arena)]
	}
	s.legalArena = arena[:0]
}

// pigeonhole applies the counting presolve: more operations of a kind
// than FuncUnit slots supporting that kind is infeasible outright, as
// is more operations than slots overall. Each primitive with initiation
// interval ii contributes N/ii slots at context count N (ii divides N,
// or the MRRG would not have been generated).
func (s *stamper) pigeonhole() {
	n := s.mg.Contexts
	for _, ks := range s.t.kinds {
		slots := 0
		for _, ii := range ks.iis {
			slots += n / ii
		}
		if ks.ops > slots {
			s.f.infeasible = fmt.Sprintf("%d operations of kind %s but only %d supporting slots", ks.ops, ks.kind, slots)
			return
		}
	}
	total := 0
	for _, ii := range s.t.fuIIs {
		total += n / ii
	}
	if s.t.g.NumOps() > total {
		s.f.infeasible = fmt.Sprintf("%d operations but only %d functional-unit slots",
			s.t.g.NumOps(), total)
	}
}

// forEachRouteFanout enumerates RouteRes neighbours.
func (s *stamper) forEachRouteFanout(i int, fn func(int)) {
	for _, m := range s.mg.Nodes[i].Fanouts {
		if s.mg.Nodes[m].Kind == mrrg.RouteRes {
			fn(m)
		}
	}
}

// computeAllowed returns, per sub-value, the set of routing nodes that
// lie on some source-to-sink path (forward reachability from every legal
// producer output intersected with backward reachability from every
// compatible sink port). With pruning disabled, every routing node is
// allowed for every sub-value.
func (s *stamper) computeAllowed() [][][]bool {
	g, mg := s.t.g, s.mg
	nNodes := len(mg.Nodes)
	s.boolUsed = 0
	s.r3Vars, s.r2Vars = 0, 0
	allowed := make([][][]bool, g.NumVals())
	if cap(s.unions) < g.NumVals() {
		s.unions = make([][]bool, g.NumVals())
	}
	s.unions = s.unions[:g.NumVals()]

	if s.t.disablePruning {
		// Every sub-value shares one read-only mask of all routing
		// nodes.
		all, none := s.boolSlice(nNodes), s.boolSlice(nNodes)
		routes := 0
		for i, n := range mg.Nodes {
			all[i] = n.Kind == mrrg.RouteRes
			if all[i] {
				routes++
			}
		}
		for _, v := range g.Vals() {
			allowed[v.ID] = make([][]bool, len(v.Uses))
			for k := range v.Uses {
				allowed[v.ID][k] = all
			}
			s.r3Vars += routes * len(v.Uses)
			s.unions[v.ID] = none
			if len(v.Uses) > 0 {
				s.unions[v.ID] = all
				s.r2Vars += routes
			}
		}
		return allowed
	}

	if cap(s.fwd) < nNodes {
		s.fwd = make([]bool, nNodes)
		s.bwd = make([]bool, nNodes)
	}
	fwd, bwd := s.fwd[:nNodes], s.bwd[:nNodes]
	for _, v := range g.Vals() {
		union := s.boolSlice(nNodes)
		s.unions[v.ID] = union
		// Forward reachability from every legal producer output.
		clear(fwd)
		queue := s.queue[:0]
		for _, p := range s.legal[v.Def.ID] {
			out := mg.Nodes[p].OutNode
			if !fwd[out] {
				fwd[out] = true
				queue = append(queue, out)
			}
		}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			s.forEachRouteFanout(i, func(m int) {
				if !fwd[m] {
					fwd[m] = true
					queue = append(queue, m)
				}
			})
		}
		allowed[v.ID] = make([][]bool, len(v.Uses))
		for k, u := range v.Uses {
			// Backward reachability from compatible sink ports.
			clear(bwd)
			queue = queue[:0]
			for _, n := range mg.Nodes {
				if n.OperandPort >= 0 && mg.CompatibleSink(n, u.Op, u.Operand) {
					bwd[n.ID] = true
					queue = append(queue, n.ID)
				}
			}
			for len(queue) > 0 {
				i := queue[0]
				queue = queue[1:]
				for _, m := range mg.Nodes[i].Fanins {
					if mg.Nodes[m].Kind == mrrg.RouteRes && !bwd[m] {
						bwd[m] = true
						queue = append(queue, m)
					}
				}
			}
			set := s.boolSlice(nNodes)
			trues := 0
			for i := range set {
				if fwd[i] && bwd[i] {
					set[i] = true
					trues++
					if !union[i] {
						union[i] = true
						s.r2Vars++
					}
				}
			}
			s.r3Vars += trues
			if trues == 0 {
				s.f.infeasible = fmt.Sprintf("value %s cannot reach %s.op%d on this architecture",
					v.Name, u.Op.Name, u.Operand)
				s.queue = queue[:0]
				return nil
			}
			allowed[v.ID][k] = set
		}
		s.queue = queue[:0]
	}
	return allowed
}

// refineLegal drops placements whose output cannot reach every sink and
// whose operand ports cannot be reached by the corresponding producers
// (sound because the allowed sets were computed from a superset of the
// refined placements).
func (s *stamper) refineLegal(allowed [][][]bool) {
	mg := s.mg
	for _, op := range s.t.g.Ops() {
		kept := s.legal[op.ID][:0]
	placements:
		for _, p := range s.legal[op.ID] {
			fu := mg.Nodes[p]
			if op.Out != nil {
				out := fu.OutNode
				for k := range op.Out.Uses {
					if !allowed[op.Out.ID][k][out] {
						continue placements
					}
				}
			}
			for si, v := range op.In {
				k := useIndex(v, op, si)
				ok := false
				for _, pn := range fu.PortNodes {
					if mg.CompatibleSink(mg.Nodes[pn], op, si) && allowed[v.ID][k][pn] {
						ok = true
						break
					}
				}
				if !ok {
					continue placements
				}
			}
			kept = append(kept, p)
		}
		s.legal[op.ID] = kept
		if len(kept) == 0 {
			s.f.infeasible = fmt.Sprintf("no reachable placement for operation %s (%s)", op.Name, op.Kind)
			return
		}
	}
}

func (s *stamper) createVars(allowed [][][]bool) {
	f, g, mg := s.f, s.t.g, s.mg
	f.fvar = make([]map[int]ilp.Var, g.NumOps())
	for _, op := range g.Ops() {
		f.fvar[op.ID] = make(map[int]ilp.Var, len(s.legal[op.ID]))
		for _, p := range s.legal[op.ID] {
			v := f.model.BinaryComposite("F", mg.Nodes[p].Name, op.Name, -1)
			// Placement decisions dominate the search: branch on
			// them first, trying "placed here" before "not here"
			// so that each decision constructively extends a
			// partial placement instead of enumerating
			// exclusions.
			f.model.SetBranchPriority(v, 1)
			f.model.SetPhaseHint(v, true)
			f.fvar[op.ID][p] = v
		}
	}
	f.r3 = make([][]map[int]ilp.Var, g.NumVals())
	f.r2 = make([]map[int]ilp.Var, g.NumVals())
	for _, v := range g.Vals() {
		f.r3[v.ID] = make([]map[int]ilp.Var, len(v.Uses))
		for k := range v.Uses {
			set := allowed[v.ID][k]
			rk := make(map[int]ilp.Var, countTrue(set))
			for i, ok := range set {
				if ok {
					rk[i] = f.model.BinaryComposite("R", mg.Nodes[i].Name, v.Name, k)
				}
			}
			f.r3[v.ID][k] = rk
		}
		union := s.unions[v.ID]
		r2 := make(map[int]ilp.Var, countTrue(union))
		for i, ok := range union {
			if ok {
				r2[i] = f.model.BinaryComposite("R", mg.Nodes[i].Name, v.Name, -1)
			}
		}
		f.r2[v.ID] = r2
	}
}

// countTrue returns the number of true entries of set.
func countTrue(set []bool) int {
	n := 0
	for _, ok := range set {
		if ok {
			n++
		}
	}
	return n
}

// addPlacementConstraints emits constraints (1) and (2).
func (s *stamper) addPlacementConstraints() {
	f, g := s.f, s.t.g
	// (1) Operation Placement: every op on exactly one FU.
	for _, op := range g.Ops() {
		s.terms = s.terms[:0]
		for _, p := range s.legal[op.ID] {
			s.terms = append(s.terms, ilp.Term{Var: f.fvar[op.ID][p], Coef: 1})
		}
		f.model.AddEQ("placement", s.terms, 1)
	}
	// (2) Functional Unit Exclusivity: at most one op per FU slot.
	perFU := make(map[int][]ilp.Term)
	for _, op := range g.Ops() {
		for _, p := range s.legal[op.ID] {
			perFU[p] = append(perFU[p], ilp.Term{Var: f.fvar[op.ID][p], Coef: 1})
		}
	}
	for _, p := range s.mg.FuncUnits() {
		if terms := perFU[p]; len(terms) > 1 {
			f.model.AddLE("fu-exclusivity", terms, 1)
		}
	}
}

// addRoutingConstraints emits constraints (4) through (9).
func (s *stamper) addRoutingConstraints(allowed [][][]bool) {
	f, g, mg := s.f, s.t.g, s.mg
	// (4) Route Exclusivity: at most one value per routing node.
	for i := range mg.Nodes {
		s.terms = s.terms[:0]
		for _, v := range g.Vals() {
			if s.unions[v.ID][i] {
				s.terms = append(s.terms, ilp.Term{Var: f.r2[v.ID][i], Coef: 1})
			}
		}
		if len(s.terms) > 1 {
			f.model.AddLE("route-exclusivity", s.terms, 1)
		}
	}

	for _, v := range g.Vals() {
		for k, u := range v.Uses {
			rk := f.r3[v.ID][k]
			for i, ok := range allowed[v.ID][k] {
				if !ok {
					continue
				}
				rv := rk[i]
				node := mg.Nodes[i]
				// (5) Fanout Routing: a used node drives a
				// downstream node with the same sub-value or
				// terminates at the sink's FU.
				s.terms = append(s.terms[:0], ilp.Term{Var: rv, Coef: -1})
				for _, m := range node.Fanouts {
					mn := mg.Nodes[m]
					if mn.Kind == mrrg.RouteRes {
						if mv, ok := rk[m]; ok {
							s.terms = append(s.terms, ilp.Term{Var: mv, Coef: 1})
						}
						continue
					}
					// FU fanout: i is an operand port of mn.
					if mg.CompatibleSink(node, u.Op, u.Operand) {
						if fv, ok := f.fvar[u.Op.ID][m]; ok {
							s.terms = append(s.terms, ilp.Term{Var: fv, Coef: 1})
						}
					}
				}
				f.model.AddGE("fanout-routing", s.terms, 0)

				// (6) Implied Placement (and operand
				// correctness): routing onto an operand port
				// forces the sink op onto that FU; an
				// incompatible port cannot carry the
				// sub-value at all.
				if node.OperandPort >= 0 {
					p := node.FUNode
					if mg.CompatibleSink(node, u.Op, u.Operand) {
						if fv, ok := f.fvar[u.Op.ID][p]; ok {
							f.model.AddGE("implied-placement",
								[]ilp.Term{{Var: fv, Coef: 1}, {Var: rv, Coef: -1}}, 0)
						} else {
							f.model.AddLE("implied-placement", []ilp.Term{{Var: rv, Coef: 1}}, 0)
						}
					} else {
						f.model.AddLE("operand-correctness", []ilp.Term{{Var: rv, Coef: 1}}, 0)
					}
				}

				// (8) Routing Resource Usage.
				f.model.AddGE("resource-usage",
					[]ilp.Term{{Var: f.r2[v.ID][i], Coef: 1}, {Var: rv, Coef: -1}}, 0)
			}
		}

		// (7) Initial Fanout: the producer's output node carries
		// every sub-value of the produced value iff the producer is
		// placed there.
		def := v.Def
		for _, p := range s.legal[def.ID] {
			out := mg.Nodes[p].OutNode
			fv := f.fvar[def.ID][p]
			for k := range v.Uses {
				if rv, ok := f.r3[v.ID][k][out]; ok {
					f.model.AddEQ("initial-fanout",
						[]ilp.Term{{Var: rv, Coef: 1}, {Var: fv, Coef: -1}}, 0)
				} else {
					// The output cannot reach this sink:
					// the placement is impossible (only
					// reachable with pruning disabled, or
					// kept deliberately when refinement is
					// off).
					f.model.AddLE("initial-fanout", []ilp.Term{{Var: fv, Coef: 1}}, 0)
				}
			}
		}

		// Distinct operand ports: when one value feeds both operands
		// of a commutative operation (e.g. x*x), its two sub-values
		// must terminate on different ports — route exclusivity
		// (4) enforces this only across *different* values, and
		// constraint (6) alone would let both sub-values share one
		// port, leaving the other ALU input undriven.
		for _, op := range g.Ops() {
			if len(op.In) != 2 || op.In[0] != op.In[1] || op.In[0] != v {
				continue
			}
			k0 := useIndex(v, op, 0)
			k1 := useIndex(v, op, 1)
			for i, ok := range allowed[v.ID][k0] {
				if !ok || mg.Nodes[i].OperandPort < 0 {
					continue
				}
				rv0 := f.r3[v.ID][k0][i]
				if rv1, ok := f.r3[v.ID][k1][i]; ok {
					f.model.AddLE("distinct-ports",
						[]ilp.Term{{Var: rv0, Coef: 1}, {Var: rv1, Coef: 1}}, 1)
				}
			}
		}

		// (9) Multiplexer Input Exclusivity: on multi-fanin routing
		// nodes the value enters through exactly as many inputs as
		// the node is used — preventing self-reinforcing loops
		// (paper Example 2) and forcing per-value route trees.
		for i, ok := range s.unions[v.ID] {
			if !ok || len(mg.Nodes[i].Fanins) <= 1 {
				continue
			}
			node := mg.Nodes[i]
			rv := f.r2[v.ID][i]
			s.terms = append(s.terms[:0], ilp.Term{Var: rv, Coef: -1})
			for _, m := range node.Fanins {
				if mv, ok := f.r2[v.ID][m]; ok {
					s.terms = append(s.terms, ilp.Term{Var: mv, Coef: 1})
				}
			}
			f.model.AddEQ("mux-input-exclusivity", s.terms, 0)
		}
	}
}
