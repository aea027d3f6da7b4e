package deps

import (
	"fmt"
	"sync"

	"fgp/internal/fiber"
	"fgp/internal/tac"
)

// EdgeKind classifies a dependence edge.
type EdgeKind uint8

const (
	// Reg is a register (temp) flow dependence: To reads a value From wrote.
	Reg EdgeKind = iota
	// Mem is a memory dependence through a shared array.
	Mem
	// Ctl is a control dependence: To executes under a condition From
	// computed.
	Ctl
)

func (k EdgeKind) String() string {
	switch k {
	case Reg:
		return "reg"
	case Mem:
		return "mem"
	case Ctl:
		return "ctl"
	}
	return "?"
}

// Edge is an instruction-level dependence.
type Edge struct {
	From, To int // instruction IDs
	Kind     EdgeKind
	Carried  bool       // crosses iterations
	Temp     tac.TempID // for Reg/Ctl: the temp carrying the value
	// For carried Mem edges: MemKnown reports whether the dependence
	// distance is exact. MemDist > 0 means From at iteration i conflicts
	// with To at iteration i+MemDist (From must stay ahead); MemDist < 0
	// means To at iteration j conflicts with From at iteration j+|MemDist|.
	// When !MemKnown the direction and distance are unknown and the
	// compiler must bound the slip between the two accesses to one
	// iteration in both directions.
	MemKnown bool
	MemDist  int64
}

// Info is the analysis result. It is read-only once Analyze returns: the
// compiles of one loop share it concurrently, and FiberEdges memoizes an
// aggregation of Edges.
type Info struct {
	Fn    *tac.Fn
	Set   *fiber.Set
	Edges []Edge
	// Colocate lists fiber pairs that the partitioner must merge before any
	// heuristic merging.
	Colocate [][2]int32
	Affine   map[tac.TempID]Affine

	fiberOnce  sync.Once
	fiberEdges []FiberEdge
}

// Analyze computes dependences for a fiber-partitioned function.
func Analyze(fn *tac.Fn, set *fiber.Set) (*Info, error) {
	info := &Info{Fn: fn, Set: set, Affine: affineAnalysis(fn)}
	info.regDeps()
	if err := info.memDeps(); err != nil {
		return nil, err
	}
	info.ctlDeps()
	info.siblingBranchDeps()
	return info, nil
}

// siblingBranchDeps co-locates the endpoints of register dependences whose
// definition and use sit in opposite branches of the same conditional. A
// queue transfer for such a pair would have to enqueue after the branch
// joins but dequeue before it splits, which cannot be ordered against other
// communication inside the branch; keeping the pair on one core sidesteps
// the problem (the paper's compiler faces the same pairing constraint,
// Section III-I).
func (info *Info) siblingBranchDeps() {
	fn := info.Fn
	for _, e := range info.Edges {
		if e.Kind != Reg || e.Carried {
			continue
		}
		rd := fn.Instrs[e.From].Region
		ru := fn.Instrs[e.To].Region
		if rd == ru {
			continue
		}
		l := fn.LCA(rd, ru)
		a := fn.AncestorAt(rd, l)
		b := fn.AncestorAt(ru, l)
		if a >= 0 && b >= 0 && a != b && fn.Regions[a].Stmt == fn.Regions[b].Stmt {
			info.colocate(fn.Instrs[e.From].Fiber, fn.Instrs[e.To].Fiber)
		}
	}
}

func (info *Info) colocate(a, b int32) {
	if a != b {
		info.Colocate = append(info.Colocate, [2]int32{a, b})
	}
}

// regDeps builds temp flow edges. For a single-def temp the def dominates
// every use (guaranteed by IR validation), so each use gets one edge. For
// multi-def temps (conditionally assigned values, accumulators) every def
// may reach a given use; all defs are co-located, uses get edges from each
// def, and a use that precedes a def in program order is a loop-carried
// read, which additionally co-locates the reader. The readers come from the
// temp's reader index (tac.TempInfo.Uses), in program order, so the pass
// visits each (reader, def) pair once instead of rescanning the function
// for every temp.
func (info *Info) regDeps() {
	fn := info.Fn
	for tid := range fn.Temps {
		t := &fn.Temps[tid]
		if t.IsIndex {
			continue // replicated on every core, never communicated
		}
		temp := tac.TempID(tid)
		defs := t.Defs
		if len(defs) == 0 {
			continue // pure parameter: broadcast at region entry
		}
		multi := len(defs) > 1 || t.IsParam // param with a def = accumulator
		if multi {
			for i := 1; i < len(defs); i++ {
				info.colocate(fn.Instrs[defs[0]].Fiber, fn.Instrs[defs[i]].Fiber)
			}
		}
		for _, use := range t.Uses {
			in := fn.Instrs[use]
			for _, d := range defs {
				if d == in.ID && len(defs) == 1 {
					// self-referencing single def (x = x op y without being
					// a param) cannot validate; defensive skip
					continue
				}
				// A def at or after the use feeds it the previous
				// iteration's value (sum = sum + x reads last iteration's sum).
				carried := d >= in.ID
				info.Edges = append(info.Edges, Edge{From: d, To: in.ID, Kind: Reg, Carried: carried, Temp: temp})
				if carried {
					info.colocate(fn.Instrs[d].Fiber, in.Fiber)
				}
			}
		}
	}
}

// memDeps adds edges between accesses to the same array when the indices
// may overlap. Unlike register values, memory traffic is not ordered by the
// queue hardware; when the partitioner separates two ordered accesses the
// code generator enforces the order with queue synchronization tokens
// (primed by the dependence distance for loop-carried dependences), so the
// edges here carry the distance information.
func (info *Info) memDeps() error {
	fn := info.Fn
	l := fn.Loop
	type access struct {
		in      *tac.Instr
		isStore bool
		idx     Affine
	}
	byArray := map[string][]access{}
	for _, in := range fn.Instrs {
		if in.Op != tac.OpLoad && in.Op != tac.OpStore {
			continue
		}
		if l.Array(in.Array) == nil {
			return fmt.Errorf("deps: access to unknown array %q", in.Array)
		}
		byArray[in.Array] = append(byArray[in.Array], access{in, in.Op == tac.OpStore, info.Affine[in.A]})
	}
	// Arrays in declaration order, so the edges come out in one order.
	for _, decl := range l.Arrays {
		accs := byArray[decl.Name]
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				a, b := accs[i], accs[j]
				if !a.isStore && !b.isStore {
					continue
				}
				r := alias(a.idx, b.idx, l.Start, l.End, l.Step)
				if r.sameIter && a.in.ID != b.in.ID &&
					!mutuallyExclusive(fn, a.in.Region, b.in.Region) {
					info.Edges = append(info.Edges, Edge{From: a.in.ID, To: b.in.ID, Kind: Mem})
				}
				if r.carried {
					info.Edges = append(info.Edges, Edge{
						From: a.in.ID, To: b.in.ID, Kind: Mem, Carried: true,
						MemKnown: r.distKnown, MemDist: r.dist,
					})
				}
			}
		}
	}
	return nil
}

// mutuallyExclusive reports whether two regions can never execute in the
// same iteration: their predicate chains demand opposite senses of the
// same condition (opposite branches of one If). Same-iteration memory
// dependences between such regions are impossible; only cross-iteration
// ordering can matter.
func mutuallyExclusive(fn *tac.Fn, r1, r2 int) bool {
	sense := map[tac.TempID]bool{}
	for _, p := range fn.PredChain(r1) {
		sense[p.Cond] = p.Sense
	}
	for _, p := range fn.PredChain(r2) {
		if s, ok := sense[p.Cond]; ok && s != p.Sense {
			return true
		}
	}
	return false
}

// ctlDeps adds, for each guarded region, edges from the defining
// instruction(s) of the controlling condition to one representative
// instruction of each fiber inside the region. Every core replicating the
// branch structure needs the condition value, so these edges are real
// communication when fibers split across cores.
func (info *Info) ctlDeps() {
	fn := info.Fn
	// Fibers present in each region subtree.
	for _, in := range fn.Instrs {
		for r := in.Region; r > 0; r = fn.Regions[r].Parent {
			cond := fn.Regions[r].Cond
			for _, d := range fn.Temps[cond].Defs {
				if fn.Instrs[d].Fiber != in.Fiber {
					info.Edges = append(info.Edges, Edge{From: d, To: in.ID, Kind: Ctl, Temp: cond})
				}
			}
		}
	}
}

// FiberEdge is an aggregated dependence between two distinct fibers.
type FiberEdge struct {
	From, To int32
	Kind     EdgeKind
	Count    int
	Carried  bool
}

// FiberEdges aggregates instruction edges to fiber granularity, dropping
// intra-fiber edges and deduplicating by (from, to, kind, temp). The first
// call aggregates; every call returns that one slice, which callers share
// and must not modify.
func (info *Info) FiberEdges() []FiberEdge {
	info.fiberOnce.Do(func() { info.fiberEdges = info.aggregateFiberEdges() })
	return info.fiberEdges
}

func (info *Info) aggregateFiberEdges() []FiberEdge {
	type key struct {
		from, to int32
		kind     EdgeKind
		temp     tac.TempID
	}
	seen := map[key]*FiberEdge{}
	var out []*FiberEdge
	for _, e := range info.Edges {
		ff := info.Fn.Instrs[e.From].Fiber
		tf := info.Fn.Instrs[e.To].Fiber
		if ff == tf {
			continue
		}
		k := key{ff, tf, e.Kind, e.Temp}
		if fe, ok := seen[k]; ok {
			fe.Count++
			fe.Carried = fe.Carried || e.Carried
			continue
		}
		fe := &FiberEdge{From: ff, To: tf, Kind: e.Kind, Count: 1, Carried: e.Carried}
		seen[k] = fe
		out = append(out, fe)
	}
	res := make([]FiberEdge, len(out))
	for i, fe := range out {
		res[i] = *fe
	}
	return res
}

// DataDepCount returns the number of data dependences (register + memory)
// between distinct initial fibers — the "Data Deps" column of Table III.
func (info *Info) DataDepCount() int {
	n := 0
	for _, fe := range info.FiberEdges() {
		if fe.Kind != Ctl {
			n += fe.Count
		}
	}
	return n
}
