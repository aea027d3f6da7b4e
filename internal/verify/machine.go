package verify

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/isa"
)

// aval is one abstract register value: either a concrete scalar (literals,
// the replicated induction variable, protocol constants and everything
// computed from them) or a symbolic value identified by its provenance —
// the TAC instruction that produced it and the abstract iteration it ran
// in. Values keep their provenance when they travel through queues, which
// is what lets the verifier match a dequeued value against the consumer's
// use set and keep replicated branch decisions consistent across cores.
type aval struct {
	conc bool
	isF  bool
	i    int64
	f    float64
	orig int32 // producing TAC instruction; -1 = unknown
	iter int32
}

func undef() aval { return aval{orig: -1, iter: -1} }

func symval(orig, iter int32, isF bool) aval {
	return aval{isF: isF, orig: orig, iter: iter}
}

func (v aval) zero() bool {
	if v.isF {
		return v.f == 0
	}
	return v.i == 0
}

func (v aval) toValue() interp.Value {
	if v.isF {
		return interp.VF(v.f)
	}
	return interp.VI(v.i)
}

func avalEq(a, b aval) bool {
	if a.conc != b.conc {
		return false
	}
	if a.conc {
		if a.isF != b.isF {
			return false
		}
		if a.isF {
			return math.Float64bits(a.f) == math.Float64bits(b.f)
		}
		return a.i == b.i
	}
	return a.orig >= 0 && a.orig == b.orig && a.iter == b.iter
}

// qentry is one abstract in-flight queue value: the edge tag the enqueue
// carried, the value, and the sender's vector clock at the enqueue (the
// happens-before payload for the token-coverage check).
type qentry struct {
	edge int32
	v    aval
	vc   []int64
}

type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedEmpty
	blockedFull
)

type coreState struct {
	pc     int
	regs   []aval
	vc     []int64
	iter   int32 // main-loop header visits
	phase  int8  // 0 before the loop, 1 inside, 2 after
	halted bool
	block  blockKind
	blockQ int32
}

// okey keys the shared branch-condition oracle: the provenance of the
// condition value. Every core branching on the same dynamic condition sees
// the same key, so replicated conditionals stay consistent per path.
type okey struct {
	orig int32
	iter int32
}

// evRec is one clock-stamped execution of a memory instruction: its row of
// the event table (checker.evSlot), the iteration it ran in, and a slab
// snapshot of the core's clock. Worlds keep these in an append-only log
// (not a map) so a fork shares the parent's prefix for free; checkTokens
// indexes the log into the checker's event table once per completed path,
// with later records for the same cell winning — the same overwrite
// semantics a map would have had.
type evRec struct {
	slot, iter int32
	vc         []int64
}

// primed counts one (queue, edge) pair's enqueues before the sender's loop.
type primed struct {
	qe qedge
	n  int
}

// world is one explored control path of the joint abstract execution.
//
// Forking at every unexplored branch decision makes clone() the verifier's
// hottest operation, so the per-world state is laid out for cheap copying:
// queues and the phase counters are dense slices indexed by queue id
// (capacity-clamped slice headers and flat memcpys instead of map
// iteration), the primed tallies are a short flat list, and the event log
// is shared copy-on-write. Clock snapshots in queue entries and event
// records come from the checker's slab and never change, so forks share
// them too. Only the branch oracle stays a map.
type world struct {
	cores  []coreState
	queues [][]qentry    // queue id -> in-flight entries
	oracle map[okey]bool // true = condition nonzero (fall through)
	events []evRec       // append-only; shared COW across forks

	// Path-local communication counters, folded into the checker's
	// monotone aggregates when the world finishes.
	prePushW []int    // queue id -> enqueues before the sender's loop
	prePopW  []int    // queue id -> dequeues before the receiver's loop
	primedW  []primed // in first-enqueue order

	steps int
	dead  bool // a fatal diagnostic fired; skip completion checks
}

func newWorld(c *checker) *world {
	w := &world{
		queues:   make([][]qentry, c.nq),
		oracle:   map[okey]bool{},
		prePushW: make([]int, c.nq),
		prePopW:  make([]int, c.nq),
	}
	n := len(c.in.Programs)
	w.cores = make([]coreState, n)
	for ci, p := range c.in.Programs {
		nregs := p.NRegs
		for _, in := range p.Instrs {
			for _, r := range []isa.Reg{in.Dst, in.A, in.B} {
				if int(r)+1 > nregs {
					nregs = int(r) + 1
				}
			}
		}
		regs := make([]aval, nregs)
		for i := range regs {
			regs[i] = undef()
		}
		w.cores[ci] = coreState{regs: regs, vc: make([]int64, n)}
	}
	return w
}

func (w *world) clone() *world {
	nw := &world{
		cores: make([]coreState, len(w.cores)),
		// The event log is shared copy-on-write: the fork gets a
		// capacity-clamped view of the parent's log, so either side's next
		// append reallocates instead of aliasing. Records and their clock
		// snapshots are immutable once appended.
		events:   w.events[:len(w.events):len(w.events)],
		queues:   make([][]qentry, len(w.queues)),
		oracle:   make(map[okey]bool, len(w.oracle)+1),
		prePushW: append([]int(nil), w.prePushW...),
		prePopW:  append([]int(nil), w.prePopW...),
		primedW:  append([]primed(nil), w.primedW...),
		steps:    w.steps,
	}
	for i, cs := range w.cores {
		cs.regs = append([]aval(nil), cs.regs...)
		cs.vc = append([]int64(nil), cs.vc...)
		nw.cores[i] = cs
	}
	for q, ents := range w.queues {
		// Same COW scheme as the event log: entries are immutable, dequeues
		// only advance the slice head, and the clamped capacity forces the
		// first post-fork enqueue on either side to reallocate.
		nw.queues[q] = ents[:len(ents):len(ents)]
	}
	for k, v := range w.oracle {
		nw.oracle[k] = v
	}
	return nw
}

// run co-executes all cores to completion, deadlock, or a fatal
// diagnostic, then folds counters and runs the per-path completion checks.
func (w *world) run(c *checker) {
	for !w.dead && !c.full() {
		progress := false
		allHalted := true
		for ci := range w.cores {
			if w.cores[ci].halted {
				continue
			}
			allHalted = false
			if w.runCore(c, ci) {
				progress = true
			}
			if w.dead || c.full() {
				break
			}
		}
		if w.dead || c.full() {
			break
		}
		if allHalted {
			w.complete(c)
			break
		}
		if !progress {
			w.deadlock(c)
			break
		}
	}
	w.foldAll(c)
}

// foldAll flushes the world's communication counters into the checker's
// monotone aggregates.
func (w *world) foldAll(c *checker) {
	for q, n := range w.prePushW {
		c.prePush[q] = max(c.prePush[q], n)
	}
	for q, n := range w.prePopW {
		c.prePop[q] = max(c.prePop[q], n)
	}
	for _, p := range w.primedW {
		if p.n > c.primedEdge[p.qe] {
			c.primedEdge[p.qe] = p.n
		}
	}
}

// countPrimed tallies one pre-loop enqueue of edge on queue q.
func (w *world) countPrimed(q, edge int32) {
	qe := qedge{q, edge}
	for i := range w.primedW {
		if w.primedW[i].qe == qe {
			w.primedW[i].n++
			return
		}
	}
	w.primedW = append(w.primedW, primed{qe: qe, n: 1})
}

// queueGrowth is the smallest capacity an entry slice is regrown to.
const queueGrowth = 8

// enqueue appends e to a queue's in-flight entries. Dequeues advance the
// slice head, so a queue that holds few entries at a time runs out of
// capacity on almost every enqueue; regrowing with headroom keeps that to
// one allocation per several enqueues. A forked world's entries are
// capacity-clamped (see clone), so neither side ever appends into the
// other's view.
func enqueue(ents []qentry, e qentry) []qentry {
	if len(ents) == cap(ents) {
		grown := make([]qentry, len(ents), max(2*len(ents), queueGrowth))
		copy(grown, ents)
		ents = grown
	}
	return append(ents, e)
}

// jumpTo moves core ci to newpc, tracking loop iterations and phases.
func (w *world) jumpTo(c *checker, ci, newpc int) {
	cs := &w.cores[ci]
	li := c.loops[ci]
	if li.head >= 0 {
		if newpc == li.head {
			cs.iter++
			if cs.phase == 0 {
				cs.phase = 1
			}
		} else if cs.phase == 1 && (newpc < li.head || newpc > li.latch) {
			cs.phase = 2
		}
	}
	cs.pc = newpc
}

func (w *world) read(cs *coreState, r isa.Reg) aval {
	if r == isa.NoReg || int(r) >= len(cs.regs) {
		return undef()
	}
	return cs.regs[r]
}

func (w *world) write(cs *coreState, r isa.Reg, v aval) {
	if r == isa.NoReg || int(r) >= len(cs.regs) {
		return
	}
	cs.regs[r] = v
}

// checkProv validates a symbolic operand against the TAC use-def relation:
// the consuming instruction must actually use the temp the operand's
// producer defines. The temp's reader index (tac.TempInfo.Uses) lists its
// readers in program order, so the lookup is a binary search.
func (w *world) checkProv(c *checker, ci, pc int, in *isa.Instr, v aval) {
	fn := c.in.Fn
	if v.conc || v.orig < 0 || in.Tac < 0 || fn == nil {
		return
	}
	if int(in.Tac) >= len(fn.Instrs) || int(v.orig) >= len(fn.Instrs) {
		return
	}
	dt := fn.Instrs[v.orig].Dst
	if dt < 0 {
		return
	}
	if _, used := slices.BinarySearch(fn.Temps[dt].Uses, int(in.Tac)); used {
		return
	}
	c.report(Diagnostic{Check: "provenance", Core: ci, PC: pc, Queue: -1, Edge: -1,
		Msg: fmt.Sprintf("instruction (tac %d) consumes the value of tac %d (temp %s), which it does not use — a transfer delivered the wrong value",
			in.Tac, v.orig, c.in.Fn.TempName(dt))})
}

// runCore executes core ci until it halts or blocks on a queue. Returns
// whether at least one instruction executed.
func (w *world) runCore(c *checker, ci int) bool {
	cs := &w.cores[ci]
	prog := c.in.Programs[ci]
	li := c.loops[ci]
	executed := false
	for !cs.halted && !w.dead && !c.full() {
		if w.steps >= maxStepsPerWorld {
			c.report(Diagnostic{Check: "structure", Core: ci, PC: cs.pc, Queue: -1, Edge: -1,
				Msg: "abstract execution exceeded its step budget (runaway control flow)"})
			w.dead = true
			return executed
		}
		if cs.pc < 0 || cs.pc >= len(prog.Instrs) {
			c.report(Diagnostic{Check: "structure", Core: ci, PC: cs.pc, Queue: -1, Edge: -1,
				Msg: "control fell off the end of the program"})
			w.dead = true
			return executed
		}
		pc := cs.pc
		in := &prog.Instrs[pc]

		// Blocking checks happen before the instruction is charged.
		switch in.Op {
		case isa.Enq:
			if len(w.queues[in.Q]) >= c.in.QueueLen {
				cs.block, cs.blockQ = blockedFull, in.Q
				return executed
			}
		case isa.Deq:
			if len(w.queues[in.Q]) == 0 {
				cs.block, cs.blockQ = blockedEmpty, in.Q
				return executed
			}
		}
		cs.block = notBlocked
		w.steps++
		executed = true
		cs.vc[ci]++

		switch in.Op {
		case isa.Nop:
			cs.pc++
		case isa.ConstF:
			w.write(cs, in.Dst, aval{conc: true, isF: true, f: in.ImmF})
			cs.pc++
		case isa.ConstI:
			w.write(cs, in.Dst, aval{conc: true, i: in.ImmI})
			cs.pc++
		case isa.Mov:
			v := w.read(cs, in.A)
			w.checkProv(c, ci, pc, in, v)
			if !v.conc && in.Tac >= 0 {
				v = symval(in.Tac, cs.iter, v.isF)
			}
			w.write(cs, in.Dst, v)
			cs.pc++
		case isa.Bin:
			a, b := w.read(cs, in.A), w.read(cs, in.B)
			w.checkProv(c, ci, pc, in, a)
			w.checkProv(c, ci, pc, in, b)
			res := symval(in.Tac, cs.iter, in.K == ir.F64)
			if a.conc && b.conc && a.isF == b.isF {
				if v, err := interp.EvalBin(in.BinOp, a.toValue(), b.toValue()); err == nil {
					res = aval{conc: true, isF: v.K == ir.F64, i: v.I, f: v.F}
				}
			}
			w.write(cs, in.Dst, res)
			cs.pc++
		case isa.Un:
			a := w.read(cs, in.A)
			w.checkProv(c, ci, pc, in, a)
			res := symval(in.Tac, cs.iter, in.K == ir.F64)
			if a.conc {
				if v, err := interp.EvalUn(in.UnOp, a.toValue()); err == nil {
					res = aval{conc: true, isF: v.K == ir.F64, i: v.I, f: v.F}
				}
			}
			w.write(cs, in.Dst, res)
			cs.pc++
		case isa.Load:
			w.checkProv(c, ci, pc, in, w.read(cs, in.A))
			w.write(cs, in.Dst, symval(in.Tac, cs.iter, in.K == ir.F64))
			w.recordEvent(c, ci, in)
			cs.pc++
		case isa.Store:
			w.checkProv(c, ci, pc, in, w.read(cs, in.A))
			w.checkProv(c, ci, pc, in, w.read(cs, in.B))
			w.recordEvent(c, ci, in)
			cs.pc++
		case isa.Enq:
			v := w.read(cs, in.A)
			w.queues[in.Q] = enqueue(w.queues[in.Q], qentry{edge: in.Edge, v: v, vc: c.snapshot(cs.vc)})
			switch cs.phase {
			case 0:
				w.prePushW[in.Q]++
				w.countPrimed(in.Q, in.Edge)
			case 1:
				c.loopPush[qedge{in.Q, in.Edge}] = true
			}
			cs.pc++
		case isa.Deq:
			ents := w.queues[in.Q]
			e := ents[0]
			w.queues[in.Q] = ents[1:]
			if e.edge != in.Edge {
				c.report(Diagnostic{Check: "fifo-order", Core: ci, PC: pc, Queue: in.Q, Edge: in.Edge,
					Msg: fmt.Sprintf("dequeue expects edge %d but the queue's next entry carries edge %d — enqueue/dequeue sequences disagree on this path",
						in.Edge, e.edge)})
				w.dead = true
				return executed
			}
			for i, t := range e.vc {
				if t > cs.vc[i] {
					cs.vc[i] = t
				}
			}
			w.write(cs, in.Dst, e.v)
			switch cs.phase {
			case 0:
				w.prePopW[in.Q]++
			case 1:
				c.loopPop[qedge{in.Q, in.Edge}] = true
			}
			cs.pc++
		case isa.Fjp:
			v := w.read(cs, in.A)
			isExit := li.head >= 0 && pc >= li.head && pc <= li.latch && int(in.Tgt) > li.latch
			if isExit && cs.iter > c.nIter {
				// Abstract horizon reached: force the loop exit. Every core
				// replicates the same concrete trip count, so this is
				// consistent with a real execution of nIter iterations.
				w.jumpTo(c, ci, int(in.Tgt))
				continue
			}
			if v.conc {
				if v.zero() {
					w.jumpTo(c, ci, int(in.Tgt))
				} else {
					cs.pc++
				}
				continue
			}
			key := okey{orig: v.orig, iter: v.iter}
			if v.orig < 0 {
				// No provenance to coordinate on (never emitted by the
				// compiler); fork locally with a core/pc-unique key.
				key = okey{orig: -2 - int32(ci)*1009 - int32(pc), iter: cs.iter}
			}
			dec, ok := w.oracle[key]
			if !ok {
				// First time this world meets the decision: default to the
				// fall-through arm, and fork a world taking the other arm —
				// but only on the first *global* encounter of the key. Every
				// decision still gets both arms explored (with all other
				// open decisions at their defaults), while the world count
				// stays linear in distinct decisions instead of exponential
				// in their product. Cross-decision conjunctions are not
				// explored; like the maxWorlds cap, that keeps the pass
				// best-effort in the direction of acceptance.
				if !c.forked[key] {
					c.forked[key] = true
					fork := w.clone()
					fork.oracle[key] = false
					c.stack = append(c.stack, fork)
				}
				w.oracle[key] = true
				dec = true
			}
			if dec {
				cs.pc++ // condition nonzero: fall through
			} else {
				w.jumpTo(c, ci, int(in.Tgt))
			}
		case isa.Jp:
			w.jumpTo(c, ci, int(in.Tgt))
		case isa.Jr:
			v := w.read(cs, in.A)
			if !v.conc || v.isF {
				c.report(Diagnostic{Check: "structure", Core: ci, PC: pc, Queue: -1, Edge: -1,
					Msg: "indirect jump target is not a statically known integer"})
				w.dead = true
				return executed
			}
			if v.i < 0 || v.i >= int64(len(prog.Instrs)) {
				c.report(Diagnostic{Check: "structure", Core: ci, PC: pc, Queue: -1, Edge: -1,
					Msg: fmt.Sprintf("indirect jump target %d out of range", v.i)})
				w.dead = true
				return executed
			}
			w.jumpTo(c, ci, int(v.i))
		case isa.Halt:
			cs.halted = true
		default:
			c.report(Diagnostic{Check: "structure", Core: ci, PC: pc, Queue: -1, Edge: -1,
				Msg: fmt.Sprintf("unknown opcode %s", in.Op)})
			w.dead = true
			return executed
		}
	}
	return executed
}

func (w *world) recordEvent(c *checker, ci int, in *isa.Instr) {
	if in.Tac < 0 || int(in.Tac) >= len(c.evSlot) || c.evSlot[in.Tac] < 0 {
		return
	}
	cs := &w.cores[ci]
	w.events = append(w.events, evRec{slot: c.evSlot[in.Tac], iter: cs.iter, vc: c.snapshot(cs.vc)})
}

// deadlock reports the stuck state: every unfinished core and the
// cross-core wait-for cycle, if one exists.
func (w *world) deadlock(c *checker) {
	waitsOn := map[int]int{}
	for ci := range w.cores {
		cs := &w.cores[ci]
		if cs.halted || cs.block == notBlocked {
			continue
		}
		if cs.block == blockedEmpty {
			waitsOn[ci] = c.qSrc(cs.blockQ)
		} else {
			waitsOn[ci] = c.qDst(cs.blockQ)
		}
	}
	cycle := findCycle(waitsOn)
	for ci := range w.cores {
		cs := &w.cores[ci]
		if cs.halted || cs.block == notBlocked {
			continue
		}
		kind := "empty"
		peer := c.qSrc(cs.blockQ)
		if cs.block == blockedFull {
			kind = "full"
			peer = c.qDst(cs.blockQ)
		}
		edge := int32(-1)
		if cs.pc >= 0 && cs.pc < len(c.in.Programs[ci].Instrs) {
			edge = c.in.Programs[ci].Instrs[cs.pc].Edge
		}
		msg := fmt.Sprintf("core %d blocked on %s queue %d->%d (waits for core %d)",
			ci, kind, c.qSrc(cs.blockQ), c.qDst(cs.blockQ), peer)
		if cycle != "" {
			msg += "; wait-for cycle " + cycle
		}
		c.report(Diagnostic{Check: "deadlock", Core: ci, PC: cs.pc, Queue: cs.blockQ, Edge: edge, Msg: msg})
	}
}

func findCycle(waitsOn map[int]int) string {
	starts := make([]int, 0, len(waitsOn))
	for s := range waitsOn {
		starts = append(starts, s)
	}
	sort.Ints(starts) // deterministic walk order, deterministic diagnostics
	for _, start := range starts {
		seen := map[int]int{} // core -> position in walk
		path := []int{}
		cur := start
		for {
			if pos, ok := seen[cur]; ok {
				cyc := path[pos:]
				s := ""
				for _, n := range cyc {
					s += fmt.Sprintf("%d->", n)
				}
				return s + fmt.Sprint(cyc[0])
			}
			next, ok := waitsOn[cur]
			if !ok {
				break
			}
			seen[cur] = len(path)
			path = append(path, cur)
			cur = next
		}
	}
	return ""
}

// complete runs the per-path end-state checks: drained queues, token
// happens-before coverage, and live-out copy-out.
func (w *world) complete(c *checker) {
	for qi, ents := range w.queues {
		if len(ents) == 0 {
			continue
		}
		q := int32(qi)
		c.report(Diagnostic{Check: "fifo-order", Core: c.qDst(q), PC: -1, Queue: q, Edge: ents[0].edge,
			Msg: fmt.Sprintf("queue %d->%d still holds %d entr%s at halt (head edge %d) — enqueues without matching dequeues",
				c.qSrc(q), c.qDst(q), len(ents), plural(len(ents), "y", "ies"), ents[0].edge)})
	}
	w.checkTokens(c)
	w.checkCopyOut(c)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// checkTokens verifies every cross-core memory dependence is ordered by a
// happens-before chain through the queues at its dependence distance.
func (w *world) checkTokens(c *checker) {
	if len(c.obligations) == 0 {
		return
	}
	// Index the append-only event log by (instruction, iteration); a later
	// record for the same cell wins, preserving the overwrite semantics
	// the log replaced.
	tab := c.evTab
	clear(tab)
	for _, r := range w.events {
		if r.iter >= 1 && r.iter <= c.nIter {
			tab[r.slot*c.nIter+r.iter-1] = r.vc
		}
	}
	for _, o := range c.obligations {
		va, vb := tab[o.a], tab[o.b]
		if va == nil || vb == nil {
			continue // one side did not execute on this path
		}
		ca := c.instPart[o.aTac]
		if ca < 0 || ca >= len(vb) {
			continue
		}
		if vb[ca] < va[ca] {
			c.report(Diagnostic{Check: "token-coverage", Core: c.instPart[o.bTac], PC: -1, Queue: -1, Edge: -1,
				Msg: fmt.Sprintf("memory dependence tac %d (core %d, iter %d) -> tac %d (core %d, iter %d) is not ordered by any queue chain — missing or misplaced memory-ordering token",
					o.aTac, ca, o.ak, o.bTac, c.instPart[o.bTac], o.bk)})
		}
	}
}

// checkCopyOut verifies the primary ends holding, under each live-out
// name, the value the owning core computed.
func (w *world) checkCopyOut(c *checker) {
	fn := c.in.Fn
	if fn == nil {
		return
	}
	p0 := c.in.Programs[0]
	regByName := map[string]isa.Reg{}
	for r, n := range p0.RegName {
		regByName[n] = r
	}
	for _, name := range fn.Loop.LiveOut {
		t, ok := fn.TempByName(name)
		if !ok {
			continue
		}
		defs := fn.Temps[t].Defs
		r, ok := regByName[name]
		if !ok {
			c.report(Diagnostic{Check: "copy-out", Core: 0, PC: -1, Queue: -1, Edge: -1,
				Msg: fmt.Sprintf("live-out %q has no named register on the primary — its value cannot be extracted", name)})
			continue
		}
		got := w.read(&w.cores[0], r)
		if len(defs) == 0 {
			continue // pure parameter; the primary materialized it
		}
		owner := c.instPart[defs[0]]
		if owner < 0 {
			continue
		}
		if owner == 0 || owner >= len(w.cores) {
			if !got.conc && (got.orig < 0 || !defsContain(defs, got.orig)) {
				c.report(Diagnostic{Check: "copy-out", Core: 0, PC: -1, Queue: -1, Edge: -1,
					Msg: fmt.Sprintf("live-out %q does not hold a value defined by its own assignments", name)})
			}
			continue
		}
		ownerReg := findTempReg(c.in.Programs[owner], defs)
		if ownerReg == isa.NoReg {
			c.report(Diagnostic{Check: "copy-out", Core: owner, PC: -1, Queue: -1, Edge: -1,
				Msg: fmt.Sprintf("live-out %q is owned by core %d but that core never computes it", name, owner)})
			continue
		}
		want := w.read(&w.cores[owner], ownerReg)
		if !avalEq(got, want) {
			c.report(Diagnostic{Check: "copy-out", Core: 0, PC: -1, Queue: -1, Edge: -1,
				Msg: fmt.Sprintf("live-out %q on the primary does not match the final value on owning core %d — missing or stale copy-out", name, owner)})
		}
	}
}

func defsContain(defs []int, orig int32) bool {
	for _, d := range defs {
		if int32(d) == orig {
			return true
		}
	}
	return false
}

// findTempReg locates the register a program allocates for a temp, via any
// of the temp's defining TAC instructions.
func findTempReg(p *isa.Program, defs []int) isa.Reg {
	for _, in := range p.Instrs {
		if in.Tac < 0 || in.Dst == isa.NoReg {
			continue
		}
		for _, d := range defs {
			if in.Tac == int32(d) {
				return in.Dst
			}
		}
	}
	return isa.NoReg
}
