// Threaded-code translation pass: the compile side of the threaded engine
// (threaded.go holds the runtime).
//
// Each per-core isa.Program is partitioned into basic blocks and every block
// is lowered to a fused straight-line unit: a compact array of typed
// micro-ops whose operand kinds were resolved statically, plus one folded
// cycle charge. At runtime the scheduler dispatches whole blocks instead of
// instructions; the only data-dependent time residue inside a block is the
// L1 hit/miss latency of loads (which are exact time-sync points, see the
// `pre` field) and traps.
//
// Block boundaries: a block is a maximal straight-line run ending at a
// control transfer (conditional/unconditional/indirect branch or halt) —
// nothing else fragments blocks. Branch targets need no leader because the
// pcmap locates every pc as a (block, op) pair and entry adjusts the folded
// charge, so branches jump into the middle of blocks; queue operations are
// ordinary in-block micro-ops that synchronize time and yield only when the
// horizon check demands it; trap-capable instructions (loads/stores that
// can go out of bounds, integer div/rem) likewise stay in-block, since
// every micro-op carries the statically folded cycle count since the last
// time-sync point (`pre`) from which the exact trap or load time is
// reconstructed.
//
// The typed register files (one float64 and one int64 slot per virtual
// register) are sound only when a static analysis proves them equivalent to
// the dynamically-kinded interp.Value register file of the reference
// engine. compileThreaded runs that analysis:
//
//   - kind unification: every register gets a single static kind consistent
//     with all its definitions and kind-sensitive uses (union-find); a queue
//     op's K must be its queue's class, and pins its Enq source or Deq
//     destination, so every queued value has its queue's kind;
//   - definite assignment: every read of an I64 register is dominated by a
//     write on all paths, so typed execution never observes the zero
//     Value's F64 kind where it expects an integer (a zeroed F64 slot reads
//     what the zero Value reads, so F64 registers need no such proof);
//   - live-out safety: I64 registers named in RegName are definitely
//     assigned at every halt (or never assigned at all), so boxing them
//     back to interp.Values at halt is exact;
//   - the only indirect jump allowed is the canonical secondary-thread
//     driver (pc0 deq / pc1 fjp / pc2 jr), whose jump register provably
//     holds the value a cooperating primary enqueued; a runtime guard hands
//     the run to the reference scheduler if the target is ever not the
//     driver body.
//
// A machine runs threaded only when every core's program passes; otherwise
// the whole run goes to the reference scheduler, so eligibility is purely a
// performance property — never a correctness one.
//
// Compiled tprogs are immutable. Each program owns its translations, one
// per cost table, built on its first simulation under that table (see
// threadedFor), so a cached artifact starts warm on every later run and a
// dropped one takes its translations with it.

package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fgp/internal/cost"
	"fgp/internal/ir"
	"fgp/internal/isa"
)

// tuop is a typed micro-op: opcode fused with the statically resolved
// operand kind, so the block runner needs no per-value kind guards.
type tuop uint8

const (
	tNop tuop = iota
	tConstF
	tConstI
	tMovF
	tMovI

	tAddF
	tSubF
	tMulF
	tDivF
	tMinF
	tMaxF
	tEqF
	tNeF
	tLtF
	tLeF
	tGtF
	tGeF

	tAddI
	tSubI
	tMulI
	tDivI // traps on zero divisor
	tRemI // traps on zero divisor
	tMinI
	tMaxI
	tAndI
	tOrI
	tXorI
	tShlI
	tShrI
	tEqI
	tNeI
	tLtI
	tLeI
	tGtI
	tGeI

	tNegF
	tNegI
	tNotI
	tSqrt
	tExp
	tLog
	tAbsF
	tAbsI
	tFloor
	tCvtIF
	tCvtFI

	tLoadF  // time-sync point; may trap out of bounds
	tLoadI  // time-sync point; may trap out of bounds
	tStoreF // may trap out of bounds
	tStoreI // may trap out of bounds

	tEnqF // time-sync point; yields unless provably ahead of the horizon
	tEnqI
	tDeqF // time-sync point
	tDeqI
)

// top is one typed micro-op, packed to 12 bytes so the dispatch stream of a
// whole program stays L1-resident next to the data it touches. pre is the
// folded static cycle charge accrued since the last time-sync point (block
// entry or the previous load) up to — but excluding — this op, used to
// reconstruct exact times at loads, traps and mid-block resumes. Cold
// operands (constants, trap metadata, profiling slots) live in the parallel
// taux array at the same index.
//
// Packing limits (checked by compileThreaded; violations make the program
// ineligible, never wrong): register indices fit uint16, array ids fit
// uint8, folded charges fit int32. Queue micro-ops keep the queue id in b
// (fits uint16) and their edge tag in taux. Unused operand fields hold the
// wrapped noReg sentinel and are never read.
type top struct {
	u    tuop
	arr  uint8
	dst  uint16
	a, b uint16
	pre  int32
}

// taux holds the micro-op operands that only matter off the hot path:
// constants, the originating pc and operator (exact trap errors, yield
// resume points), the profiling slot and a queue op's edge tag (read only
// under Config.DebugEdges). Indexed in lockstep with the ops array.
type taux struct {
	immI  int64
	immF  float64
	pc    int32
	tac   int32
	edge  int32
	binop ir.BinOp // originating operator, for exact trap errors
}

// Terminator kinds. Every block ends at a real control transfer: queue
// operations live inside blocks and fallthrough blocks cannot arise when
// only branches end blocks.
const (
	ttJp uint8 = iota
	ttFjp
	ttJr // canonical driver dispatch; runtime-guarded
	ttHalt
)

// tref locates a pc inside the compiled form: block index plus op index,
// where op == len(ops) designates the block terminator. Branch successors
// are trefs too, because branch targets are not block leaders and routinely
// land mid-block.
type tref struct{ blk, op int32 }

// tblock is one compiled basic block: the fused op array, the folded tail
// charge from the last sync point to the terminator, and the terminator.
type tblock struct {
	ops    []top
	aux    []taux // cold operands, indexed in lockstep with ops
	tail   int64  // static cycles from the last sync point to the terminator
	term   uint8
	tlat   int64 // terminator latency (branch occupancy)
	termPC int32 // pc of the terminator instruction
	tgt    tref  // taken successor (Jp/Fjp/Jr); may be mid-block
	fall   tref  // fallthrough successor (Fjp)
	a      int32 // terminator register: Fjp condition, Jr target
}

// tprog is one compiled program. Immutable after compileThreaded; shared
// between machines through the content-addressed cache.
type tprog struct {
	ok     bool
	reason string // first eligibility failure, for tests and diagnostics
	blocks []tblock
	pcmap  []tref
	kinds  []ir.Kind
	named  []isa.Reg // registers boxed back into c.regs at halt (live-outs)
	maxArr int32     // highest array id referenced, for machine binding
}

// preAt returns the folded charge already accounted for at (b, op): the
// op's pre, or the block tail when entering at the terminator.
func preAt(b *tblock, op int) int64 {
	if op < len(b.ops) {
		return int64(b.ops[op].pre)
	}
	return b.tail
}

// pcAt returns the program counter of (b, op).
func pcAt(b *tblock, op int) int {
	if op < len(b.ops) {
		return int(b.aux[op].pc)
	}
	return int(b.termPC)
}

// driverLen is the length of the canonical secondary-thread driver prologue
// (deq fn / fjp fn -> halt / jr fn); the only runtime Jr target a
// cooperating primary ever dispatches is driverLen itself.
const driverLen = 3

// ---------------------------------------------------------------------------
// Kind unification

// kindSolver is a union-find over registers with a kind label per class.
type kindSolver struct {
	parent []int32
	kind   []int8 // -1 unknown, otherwise int8(ir.Kind)
	bad    bool
}

func newKindSolver(n int) *kindSolver {
	s := &kindSolver{parent: make([]int32, n), kind: make([]int8, n)}
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.kind[i] = -1
	}
	return s
}

func (s *kindSolver) find(r int32) int32 {
	for s.parent[r] != r {
		s.parent[r] = s.parent[s.parent[r]]
		r = s.parent[r]
	}
	return r
}

func (s *kindSolver) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if s.kind[ra] >= 0 && s.kind[rb] >= 0 && s.kind[ra] != s.kind[rb] {
		s.bad = true
		return
	}
	if s.kind[rb] >= 0 {
		s.kind[ra] = s.kind[rb]
	}
	s.parent[rb] = ra
}

func (s *kindSolver) set(r int32, k ir.Kind) {
	root := s.find(r)
	if s.kind[root] >= 0 && s.kind[root] != int8(k) {
		s.bad = true
		return
	}
	s.kind[root] = int8(k)
}

// kindOf returns the solved kind of r; unconstrained registers default to
// F64, matching the zero interp.Value's kind.
func (s *kindSolver) kindOf(r isa.Reg) ir.Kind {
	root := s.find(int32(r))
	if s.kind[root] < 0 {
		return ir.F64
	}
	return ir.Kind(s.kind[root])
}

// ---------------------------------------------------------------------------
// Bitsets for the definite-assignment dataflow

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

// intersectWith ands o into b and reports whether b changed.
func (b bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Per-instruction read/write sets

// instrReads appends the registers instruction in reads to dst.
func instrReads(in *isa.Instr, dst []isa.Reg) []isa.Reg {
	switch in.Op {
	case isa.Mov, isa.Un, isa.Load, isa.Enq, isa.Fjp, isa.Jr:
		dst = append(dst, in.A)
	case isa.Bin, isa.Store:
		dst = append(dst, in.A, in.B)
	}
	return dst
}

// instrWrite returns the register in writes, or isa.NoReg.
func instrWrite(in *isa.Instr) isa.Reg {
	switch in.Op {
	case isa.ConstF, isa.ConstI, isa.Mov, isa.Bin, isa.Un, isa.Load, isa.Deq:
		return in.Dst
	}
	return isa.NoReg
}

// staticLat returns the fixed latency of a non-terminator instruction,
// exactly as the reference step charges it (note: Bin/Un use the
// instruction's K annotation, not the solved operand kind).
func staticLat(in *isa.Instr, t *cost.Table) int64 {
	switch in.Op {
	case isa.Nop:
		return 1
	case isa.ConstF, isa.ConstI:
		return t.Const
	case isa.Mov:
		return t.Mov
	case isa.Bin:
		return t.Bin(in.BinOp, in.K)
	case isa.Un:
		return t.Un(in.UnOp, in.K)
	case isa.Store:
		return t.Store
	}
	return 0
}

// ---------------------------------------------------------------------------
// The translation pass

// compileThreaded lowers one program, returning an ineligible tprog (with
// the reason recorded) rather than an error when any soundness check fails.
func compileThreaded(p *isa.Program, t cost.Table) *tprog {
	bad := func(format string, args ...any) *tprog {
		return &tprog{ok: false, reason: fmt.Sprintf(format, args...)}
	}
	n := len(p.Instrs)
	if n == 0 {
		return bad("empty program")
	}
	if p.NRegs < 0 || p.NRegs > 1<<20 {
		return bad("implausible register count %d", p.NRegs)
	}
	if p.NRegs > math.MaxUint16 {
		return bad("register count %d outside the packed encoding", p.NRegs)
	}

	// --- structural checks: opcodes, register bounds, branch targets, the
	// canonical driver shape, and no falling off the end of the program.
	isDriver := n > driverLen &&
		p.Instrs[0].Op == isa.Deq && p.Instrs[1].Op == isa.Fjp && p.Instrs[2].Op == isa.Jr
	inRange := func(r isa.Reg) bool { return r >= 0 && int(r) < p.NRegs }
	var scratch []isa.Reg
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		switch in.Op {
		case isa.Nop, isa.ConstF, isa.ConstI, isa.Mov, isa.Bin, isa.Un,
			isa.Load, isa.Store, isa.Enq, isa.Deq, isa.Fjp, isa.Jp, isa.Jr, isa.Halt:
		default:
			return bad("pc %d: unknown opcode %s", pc, in.Op)
		}
		scratch = instrReads(in, scratch[:0])
		for _, r := range scratch {
			if !inRange(r) {
				return bad("pc %d: read of out-of-range register %d", pc, r)
			}
		}
		if w := instrWrite(in); w != isa.NoReg && !inRange(w) {
			return bad("pc %d: write to out-of-range register %d", pc, w)
		}
		switch in.Op {
		case isa.Fjp, isa.Jp:
			if in.Tgt < 0 || int(in.Tgt) >= n {
				return bad("pc %d: branch target %d out of program", pc, in.Tgt)
			}
		case isa.Jr:
			if !(isDriver && pc == 2) {
				return bad("pc %d: indirect jump outside the canonical driver", pc)
			}
		case isa.Enq, isa.Deq:
			if in.K != queueClass(in.Q) {
				return bad("pc %d: %s of kind %s on queue %d of class %s", pc, in.Op, in.K, in.Q, queueClass(in.Q))
			}
		}
		// Every instruction that can reach pc+1 needs pc+1 to exist.
		fallsThrough := true
		switch in.Op {
		case isa.Jp, isa.Jr, isa.Halt:
			fallsThrough = false
		}
		if fallsThrough && pc+1 >= n {
			return bad("pc %d: %s falls off the end of the program", pc, in.Op)
		}
	}

	// --- kind unification.
	ks := newKindSolver(p.NRegs)
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		switch in.Op {
		case isa.ConstF:
			ks.set(int32(in.Dst), ir.F64)
		case isa.ConstI:
			ks.set(int32(in.Dst), ir.I64)
		case isa.Mov:
			ks.union(int32(in.Dst), int32(in.A))
		case isa.Bin:
			ks.union(int32(in.A), int32(in.B))
			if in.BinOp.IsCompare() {
				ks.set(int32(in.Dst), ir.I64)
			} else {
				ks.union(int32(in.Dst), int32(in.A))
			}
		case isa.Un:
			switch in.UnOp {
			case ir.Neg, ir.Abs:
				ks.union(int32(in.Dst), int32(in.A))
			case ir.Not:
				ks.set(int32(in.A), ir.I64)
				ks.set(int32(in.Dst), ir.I64)
			case ir.Sqrt, ir.Exp, ir.Log, ir.Floor:
				ks.set(int32(in.A), ir.F64)
				ks.set(int32(in.Dst), ir.F64)
			case ir.CvtIF:
				ks.set(int32(in.A), ir.I64)
				ks.set(int32(in.Dst), ir.F64)
			case ir.CvtFI:
				ks.set(int32(in.A), ir.F64)
				ks.set(int32(in.Dst), ir.I64)
			default:
				return bad("pc %d: unknown unary op %s", pc, in.UnOp)
			}
		case isa.Load:
			ks.set(int32(in.A), ir.I64)
			ks.set(int32(in.Dst), in.K)
		case isa.Store:
			ks.set(int32(in.A), ir.I64)
			ks.set(int32(in.B), in.K)
		case isa.Fjp, isa.Jr:
			ks.set(int32(in.A), ir.I64)
		case isa.Enq:
			ks.set(int32(in.A), in.K)
		case isa.Deq:
			ks.set(int32(in.Dst), in.K)
		}
		if ks.bad {
			return bad("pc %d: register kind conflict", pc)
		}
	}

	// --- block partition: maximal straight-line runs ending at a control
	// transfer. No leader set is needed — the walk itself defines blocks,
	// and branch successors are resolved to (block, op) refs afterwards.
	tp := &tprog{
		ok:     true,
		pcmap:  make([]tref, n),
		kinds:  make([]ir.Kind, p.NRegs),
		maxArr: -1,
	}
	for r := 0; r < p.NRegs; r++ {
		tp.kinds[r] = ks.kindOf(isa.Reg(r))
	}

	// Every block's ops and aux are slices of one arena per program, sized
	// to its instruction count.
	ops, aux := make([]top, 0, n), make([]taux, 0, n)
	for pc := 0; pc < n; {
		bi := int32(len(tp.blocks))
		b := tblock{termPC: -1, a: -1}
		first := len(ops)
		var acc int64 // folded charge since the last sync point
	body:
		for {
			in := &p.Instrs[pc]
			switch in.Op {
			case isa.Fjp, isa.Jp, isa.Jr, isa.Halt:
				b.termPC = int32(pc)
				b.tail = acc
				switch in.Op {
				case isa.Fjp:
					b.term, b.tlat = ttFjp, t.Branch
					b.a = int32(in.A)
				case isa.Jp:
					b.term, b.tlat = ttJp, t.Branch
				case isa.Jr:
					b.term, b.tlat = ttJr, t.Branch
					b.a = int32(in.A)
				case isa.Halt:
					b.term = ttHalt
				}
				tp.pcmap[pc] = tref{bi, int32(len(ops) - first)}
				pc++
				break body
			}
			// Body op.
			if acc > math.MaxInt32 {
				return bad("pc %d: folded charge %d overflows the packed encoding", pc, acc)
			}
			o := top{
				dst: uint16(in.Dst), a: uint16(in.A), b: uint16(in.B),
				pre: int32(acc),
			}
			ax := taux{
				immI: in.ImmI, immF: in.ImmF,
				pc: int32(pc), tac: in.Tac, edge: in.Edge, binop: in.BinOp,
			}
			sync := false
			switch in.Op {
			case isa.Nop:
				o.u = tNop
			case isa.ConstF:
				o.u = tConstF
			case isa.ConstI:
				o.u = tConstI
			case isa.Mov:
				if ks.kindOf(in.A) == ir.F64 {
					o.u = tMovF
				} else {
					o.u = tMovI
				}
			case isa.Bin:
				u, ok := binTuop(in.BinOp, ks.kindOf(in.A))
				if !ok {
					return bad("pc %d: operator %s undefined on solved kind", pc, in.BinOp)
				}
				o.u = u
			case isa.Un:
				switch in.UnOp {
				case ir.Neg:
					if ks.kindOf(in.A) == ir.F64 {
						o.u = tNegF
					} else {
						o.u = tNegI
					}
				case ir.Abs:
					if ks.kindOf(in.A) == ir.F64 {
						o.u = tAbsF
					} else {
						o.u = tAbsI
					}
				case ir.Not:
					o.u = tNotI
				case ir.Sqrt:
					o.u = tSqrt
				case ir.Exp:
					o.u = tExp
				case ir.Log:
					o.u = tLog
				case ir.Floor:
					o.u = tFloor
				case ir.CvtIF:
					o.u = tCvtIF
				case ir.CvtFI:
					o.u = tCvtFI
				}
			case isa.Load:
				if in.K == ir.F64 {
					o.u = tLoadF
				} else {
					o.u = tLoadI
				}
				sync = true
			case isa.Store:
				if in.K == ir.F64 {
					o.u = tStoreF
				} else {
					o.u = tStoreI
				}
			case isa.Enq, isa.Deq:
				// Queue micro-ops pack the queue id into b; they
				// re-synchronize time dynamically like loads. The kind is
				// the queue's class, which the structural pass checked.
				if in.Q < 0 || in.Q > math.MaxUint16 {
					return bad("pc %d: queue id %d outside the packed encoding", pc, in.Q)
				}
				o.b = uint16(in.Q)
				switch {
				case in.Op == isa.Enq && in.K == ir.F64:
					o.u = tEnqF
				case in.Op == isa.Enq:
					o.u = tEnqI
				case in.K == ir.F64:
					o.u = tDeqF
				default:
					o.u = tDeqI
				}
				sync = true
			}
			if in.Op == isa.Load || in.Op == isa.Store {
				if in.Arr < 0 || in.Arr > math.MaxUint8 {
					return bad("pc %d: array id %d outside the packed encoding", pc, in.Arr)
				}
				o.arr = uint8(in.Arr)
				if in.Arr > tp.maxArr {
					tp.maxArr = in.Arr
				}
			}
			tp.pcmap[pc] = tref{bi, int32(len(ops) - first)}
			ops, aux = append(ops, o), append(aux, ax)
			if sync {
				acc = 0 // the op re-synchronizes time dynamically
			} else {
				acc += staticLat(in, &t)
			}
			pc++
		}
		b.ops, b.aux = ops[first:len(ops):len(ops)], aux[first:len(aux):len(aux)]
		tp.blocks = append(tp.blocks, b)
	}

	// Resolve branch successors now that every pc has its (block, op) ref;
	// taken targets routinely land mid-block (targets are not leaders).
	for i := range tp.blocks {
		b := &tp.blocks[i]
		in := &p.Instrs[b.termPC]
		switch b.term {
		case ttJp:
			b.tgt = tp.pcmap[in.Tgt]
		case ttFjp:
			b.tgt = tp.pcmap[in.Tgt]
			b.fall = tp.pcmap[b.termPC+1]
		case ttJr:
			b.tgt = tp.pcmap[driverLen]
		}
	}

	// --- definite assignment over the block CFG.
	if reason := checkDefiniteAssignment(p, tp); reason != "" {
		return bad("%s", reason)
	}

	// Live-out registers boxed back at halt, in deterministic order.
	for r := range p.RegName {
		tp.named = append(tp.named, r)
	}
	sort.Slice(tp.named, func(i, j int) bool { return tp.named[i] < tp.named[j] })

	return tp
}

// binTuop fuses a binary operator with the solved operand kind.
func binTuop(op ir.BinOp, k ir.Kind) (tuop, bool) {
	if k == ir.F64 {
		switch op {
		case ir.Add:
			return tAddF, true
		case ir.Sub:
			return tSubF, true
		case ir.Mul:
			return tMulF, true
		case ir.Div:
			return tDivF, true
		case ir.Min:
			return tMinF, true
		case ir.Max:
			return tMaxF, true
		case ir.Eq:
			return tEqF, true
		case ir.Ne:
			return tNeF, true
		case ir.Lt:
			return tLtF, true
		case ir.Le:
			return tLeF, true
		case ir.Gt:
			return tGtF, true
		case ir.Ge:
			return tGeF, true
		}
		return 0, false // Rem/And/Or/Xor/Shl/Shr are undefined on f64
	}
	switch op {
	case ir.Add:
		return tAddI, true
	case ir.Sub:
		return tSubI, true
	case ir.Mul:
		return tMulI, true
	case ir.Div:
		return tDivI, true
	case ir.Rem:
		return tRemI, true
	case ir.Min:
		return tMinI, true
	case ir.Max:
		return tMaxI, true
	case ir.And:
		return tAndI, true
	case ir.Or:
		return tOrI, true
	case ir.Xor:
		return tXorI, true
	case ir.Shl:
		return tShlI, true
	case ir.Shr:
		return tShrI, true
	case ir.Eq:
		return tEqI, true
	case ir.Ne:
		return tNeI, true
	case ir.Lt:
		return tLtI, true
	case ir.Le:
		return tLeI, true
	case ir.Gt:
		return tGtI, true
	case ir.Ge:
		return tGeI, true
	}
	return 0, false
}

// checkDefiniteAssignment runs the must-assign dataflow and returns a
// non-empty reason string when an I64 register may be read unassigned. It
// also verifies the live-out condition: every I64 RegName register is
// definitely assigned at each reachable halt, or never assigned anywhere.
// F64 registers are exempt: an unassigned one reads as the zero Value,
// which is exactly what a zeroed F64 slot boxes to.
//
// The analysis runs over its own fine-grained partition — leaders at every
// branch target and after every control transfer — independent of the
// coarse execution blocks: joins only happen at branch targets, and every
// mid-block entry the runtime can take (taken branches, comm and yield
// resumes) re-enters with unchanged register state, so a proof over this
// CFG covers every path the engine executes.
func checkDefiniteAssignment(p *isa.Program, tp *tprog) string {
	n := len(p.Instrs)
	nr := p.NRegs
	if nr == 0 {
		nr = 1 // keep the bitsets non-degenerate
	}

	leader := make([]bool, n)
	leader[0] = true
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			leader[pc] = true
		}
	}
	for pc := range p.Instrs {
		switch in := &p.Instrs[pc]; in.Op {
		case isa.Fjp:
			mark(int(in.Tgt))
			mark(pc + 1)
		case isa.Jp:
			mark(int(in.Tgt))
			mark(pc + 1)
		case isa.Jr:
			mark(driverLen)
			mark(pc + 1)
		case isa.Halt:
			mark(pc + 1)
		}
	}
	blkIdx := make([]int32, n) // pc -> analysis block
	var starts []int32
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			starts = append(starts, int32(pc))
		}
		blkIdx[pc] = int32(len(starts) - 1)
	}
	nb := len(starts)
	endOf := func(bi int32) int32 {
		if int(bi)+1 < nb {
			return starts[bi+1] - 1
		}
		return int32(n - 1)
	}
	// succs relies on the structural pass: an instruction that can fall
	// through always has a pc+1 (checked), so end+1 is in range below.
	succs := func(bi int32, dst []int32) []int32 {
		end := endOf(bi)
		switch in := &p.Instrs[end]; in.Op {
		case isa.Jp:
			dst = append(dst, blkIdx[in.Tgt])
		case isa.Jr:
			dst = append(dst, blkIdx[driverLen])
		case isa.Fjp:
			dst = append(dst, blkIdx[in.Tgt], blkIdx[end+1])
		case isa.Halt:
		default: // falls through into the next leader
			dst = append(dst, blkIdx[end+1])
		}
		return dst
	}

	// Reachability from the entry block (pc 0 is block 0).
	reach := make([]bool, nb)
	reach[0] = true
	stack := []int32{0}
	var sc []int32
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sc = succs(bi, sc[:0])
		for _, s := range sc {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}

	// Gen (assigned) sets per block.
	def := make([]bitset, nb)
	for bi := 0; bi < nb; bi++ {
		def[bi] = newBitset(nr)
		for pc := starts[bi]; pc <= endOf(int32(bi)); pc++ {
			if w := instrWrite(&p.Instrs[pc]); w != isa.NoReg {
				def[bi].set(int32(w))
			}
		}
	}

	// Must-assign dataflow: IN[b] = ∩ OUT[pred]; OUT[b] = IN[b] ∪ def[b].
	in := make([]bitset, nb)
	out := make([]bitset, nb)
	for bi := 0; bi < nb; bi++ {
		in[bi] = newBitset(nr)
		out[bi] = newBitset(nr)
		if bi != 0 {
			in[bi].fill()
		}
		out[bi].copyFrom(in[bi])
		for i := range out[bi] {
			out[bi][i] |= def[bi][i]
		}
	}
	changed := true
	for changed {
		changed = false
		for bi := 0; bi < nb; bi++ {
			if !reach[bi] {
				continue
			}
			sc = succs(int32(bi), sc[:0])
			for _, s := range sc {
				if !reach[s] {
					continue
				}
				if in[s].intersectWith(out[bi]) {
					for i := range out[s] {
						n := in[s][i] | def[s][i]
						if n != out[s][i] {
							out[s][i] = n
						}
					}
					changed = true
				}
			}
		}
	}

	// Check every read inside each reachable block against the running
	// assigned set, and apply the live-out rule at reachable halts.
	cur := newBitset(nr)
	everDef := newBitset(nr)
	for bi := 0; bi < nb; bi++ {
		for i := range everDef {
			everDef[i] |= def[bi][i]
		}
	}
	var reads []isa.Reg
	for bi := 0; bi < nb; bi++ {
		if !reach[bi] {
			continue
		}
		cur.copyFrom(in[bi])
		end := endOf(int32(bi))
		for pc := starts[bi]; pc <= end; pc++ {
			inst := &p.Instrs[pc]
			reads = instrReads(inst, reads[:0])
			for _, r := range reads {
				if !cur.has(int32(r)) && tp.kinds[r] == ir.I64 {
					return fmt.Sprintf("pc %d: read of possibly-unassigned register %d", pc, r)
				}
			}
			if w := instrWrite(inst); w != isa.NoReg {
				cur.set(int32(w))
			}
		}
		if p.Instrs[end].Op == isa.Halt && len(p.RegName) > 0 {
			for r := range p.RegName {
				if !cur.has(int32(r)) && everDef.has(int32(r)) && tp.kinds[r] == ir.I64 {
					return fmt.Sprintf("pc %d: live-out register %d possibly unassigned at halt", end, r)
				}
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Per-program translations

// maxTranslations bounds the translations one program keeps, one per cost
// table it was simulated under. Sweeps vary the L1 and enq/deq costs at
// run time, so an artifact can meet several tables; past the bound the
// oldest translation is dropped and rebuilt if its table comes back.
const maxTranslations = 8

// tset is the content of a program's Engine slot: its translations, oldest
// first. A published tset never changes; adding a translation publishes a
// new one.
type tset struct {
	entries []tentry
}

type tentry struct {
	t  cost.Table
	tp *tprog
}

// threadedFor returns p's translation under cost table t, building it on
// first use. The lookup takes no lock: two simultaneous first uses may
// both build, and the translation published first is the one kept.
func threadedFor(p *isa.Program, t cost.Table) *tprog {
	slot := p.Engine()
	var tp *tprog
	for {
		raw := slot.Load()
		var have []tentry
		if cur, ok := raw.(*tset); ok {
			have = cur.entries
		}
		for _, e := range have {
			if e.t == t {
				return e.tp
			}
		}
		if tp == nil {
			tp = compileThreaded(p, t)
		}
		// Clip, so the append copies instead of writing into the
		// published set's array.
		keep := slices.Clip(have[max(0, len(have)-maxTranslations+1):])
		if slot.CompareAndSwap(raw, &tset{entries: append(keep, tentry{t: t, tp: tp})}) {
			return tp
		}
	}
}

// PrecompileThreaded builds each program's translation under t ahead of
// its first simulation. The pipeline does not call it — a program builds
// its translation when it is first simulated — but the benchmark's replay
// does, to time translation as a stage of its own.
func PrecompileThreaded(progs []*isa.Program, t cost.Table) {
	for _, p := range progs {
		if p != nil {
			threadedFor(p, t)
		}
	}
}
