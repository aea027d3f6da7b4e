// Threaded-code execution engine (runtime half; tcompile.go is the
// translation pass).
//
// The reference scheduler (runReference) re-enters the global scheduler
// after every instruction, although cores interact only through the
// hardware queues and the shared memory port (the invariant documented at
// the top of sim.go). The threaded engine exploits that twice. First, a
// picked core keeps executing without rescheduling: work on core-local
// state and race-free memory data is observationally identical whenever it
// runs, and operations on shared state run inline only while the core is
// provably still the scheduler's (time, id)-minimal pick — ahead of the
// horizon, the next runnable core in scheduler order — so their globally
// visible effects occur at exactly the reference engine's moment. Second,
// it removes per-instruction dispatch: each pick executes whole fused basic
// blocks of straight-line typed micro-ops over split float64/int64 register
// files (no per-value kind guards — kinds were resolved statically), with
// the block's entire static cycle cost folded into per-block charges
// applied at time-sync points instead of per-op adds. The
// scheduler-visible unit of work drops from an instruction to a block.
//
// Time accounting. Loads are the only data-dependent time sources inside a
// block (L1 hit/miss plus memory-port serialization), so they are the
// block's sync points: a load eagerly applies the folded static charge
// accrued since the previous sync (op.pre), then its own dynamic latency;
// the block's terminator applies the remaining tail. Entering a block at
// an arbitrary op j (resuming after a yield, a blocked queue, or a pick
// that ended at a block boundary) subtracts preAt(b, j) once, which makes
// cold entry, mid-block resume and terminator-entry all the same code
// path: c.pc is the only resume state.
//
// Yield discipline:
//   - loads that would miss while the core is past the (time, id) horizon
//     yield before touching the shared memory port;
//   - enqueues/dequeues are ordinary in-block micro-ops that run inline
//     while the core is provably the scheduler's next pick, else they
//     yield; full/empty queues block with the exact stall bookkeeping of
//     the reference step (the two order-independent cases that may run
//     past the horizon are argued at their micro-ops below);
//   - under a cancellable context a pick ends at the first block boundary
//     past cancelStride steps.
//
// Eligibility and hand-over. A machine runs threaded only when every
// core's program translates (tcompile.go); otherwise, and whenever the run
// is recorded, the whole run goes to runReference. A translated run
// hands over to runReference mid-run in two cases static analysis cannot
// cover: an indirect jump whose target is not the canonical driver body,
// and a block that would run past the MaxSteps remainder. The hand-over
// boxes every core's typed registers back into its interp.Value file once
// and continues from the executed step count. Boxing is exact because every
// assigned register holds a "clean" Value (single-field, as interp
// constructs them) of the solved kind, an unassigned F64 slot boxes to the
// zero Value, and the definite-assignment analysis proves that no path the
// translation knows reads an unassigned I64 register. An off-script jump is
// a path it does not know: code that then reads an I64 register never
// written on that path sees the boxed integer 0 where the reference sees
// the zero Value. No compiled program dispatches off-script.

package sim

import (
	"context"
	"fmt"
	"math"

	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/isa"
)

// tcore is the per-core runtime state of the threaded engine: the core's
// translation and its split typed register files.
type tcore struct {
	tp    *tprog
	fregs []float64
	iregs []int64
}

// tinit fetches every core's translation (building it on the program's
// first simulation under this cost table) and binds the machine's memory
// arrays. It reports whether every core translated.
func (m *Machine) tinit() bool {
	m.tcores = make([]tcore, len(m.cores))
	maxArr := int32(-1)
	for i, c := range m.cores {
		tp := threadedFor(c.prog, m.cfg.Cost)
		if !tp.ok {
			return false
		}
		m.tcores[i] = tcore{
			tp:    tp,
			fregs: make([]float64, len(c.regs)),
			iregs: make([]int64, len(c.regs)),
		}
		maxArr = max(maxArr, tp.maxArr)
	}
	m.tArrF = make([][]float64, maxArr+1)
	m.tArrI = make([][]int64, maxArr+1)
	m.tBase = make([]int64, maxArr+1)
	for arr := int32(0); arr <= maxArr; arr++ {
		m.tArrF[arr] = m.mm.DataF(arr)
		m.tArrI[arr] = m.mm.DataI(arr)
		m.tBase[arr] = m.mm.Base(arr)
	}
	return true
}

// runThreaded runs the machine on the threaded engine when it can, and on
// the reference scheduler otherwise.
func (m *Machine) runThreaded(ctx context.Context) (*Result, error) {
	if m.cfg.Sink != nil || !m.tinit() {
		// Under instrumentation every instruction must flow through the
		// shared step path so the event stream is the reference engine's
		// by construction.
		return m.runReference(ctx, 0)
	}
	return m.trun(ctx)
}

// boxed returns typed register r as the interp.Value of its solved kind.
func (tc *tcore) boxed(r isa.Reg) interp.Value {
	if tc.tp.kinds[r] == ir.F64 {
		return interp.Value{K: ir.F64, F: tc.fregs[r]}
	}
	return interp.Value{K: ir.I64, I: tc.iregs[r]}
}

// handOver boxes every core's typed registers into c.regs and finishes the
// run on the reference scheduler; steps is the count executed so far.
func (m *Machine) handOver(ctx context.Context, steps int64) (*Result, error) {
	for i, c := range m.cores {
		for r := range c.regs {
			c.regs[r] = m.tcores[i].boxed(isa.Reg(r))
		}
	}
	return m.runReference(ctx, steps)
}

// trun is the resident scheduler of the threaded engine: it executes
// scheduler picks back to back — at block granularity, switching cores
// without unwinding — until every core halts, the machine deadlocks, the
// run fails or is cancelled, or it hands over to the reference scheduler.
// Machine-wide invariants (cost parameters, memory bindings, the port
// cursor) stay in registers across picks; only the per-core state is
// rebound on a core switch. Errors are wrapped exactly as the reference
// scheduler wraps them.
//
// Each pick's core c is the scheduler's (time, id)-minimal pick with
// horizon (hTime, hID), so its first instruction — including a
// communication op or a missing load — is safe to execute. Every pick exit
// path writes c.pc and c.time itself (they differ per path).
func (m *Machine) trun(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	maxSteps := m.cfg.MaxSteps
	portOn := m.cfg.MemPortCycles > 0
	l1Hit, l1Miss := m.cfg.Cost.L1Hit, m.cfg.Cost.L1Miss
	portCycles := m.cfg.MemPortCycles
	portFree := m.memPortFree
	portBusy := m.portBusy
	prof := m.prof
	profOn := prof != nil
	transferLat := m.cfg.TransferLatency
	dbgEdges := m.cfg.DebugEdges
	tArrF, tArrI, tBase := m.tArrF, m.tArrI, m.tBase
	queues := m.queues
	enqLat, deqLat := m.cfg.Cost.Enq, m.cfg.Cost.Deq
	var stepsTotal int64

	for {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		c, hTime, hID := m.pickCore2()
		if c == nil {
			m.memPortFree = portFree
			m.portBusy = portBusy
			if m.allHalted() {
				return m.result(), nil
			}
			return nil, fmt.Errorf("%w\n%s", ErrDeadlock, m.dump())
		}
		tc := &m.tcores[c.id]
		tp := tc.tp
		budget := maxSteps - stepsTotal + 1
		fregs, iregs := tc.fregs, tc.iregs
		cc := c.cache
		cid := c.id
		time := c.time
		blks := tp.blocks
		var steps int64
		var err error
		handOver := false

		ref := tp.pcmap[c.pc]
		b := &blks[ref.blk]
		ops, aux := b.ops, b.aux
		op := int(ref.op)
		// The uniform entry adjustment: charges already paid up to this op
		// are subtracted once, so the sync points below can re-apply their
		// full folded charges regardless of where the pick entered the block.
		time -= preAt(b, op)

	blocks:
		for {
			// A block that would pass the MaxSteps remainder goes to the
			// reference scheduler, which stops at the exact instruction.
			rem := int64(len(ops)-op) + 1 // every block ends at a terminator
			handOver = steps+rem > budget
			if handOver || (done != nil && steps >= cancelStride) {
				c.pc = pcAt(b, op)
				c.time = time + preAt(b, op)
				break blocks
			}
			op0 := op
			for ; op < len(ops); op++ {
				o := &ops[op]
				switch o.u {
				case tNop: // latency folded into pre/tail
				case tConstF:
					fregs[o.dst] = aux[op].immF
				case tConstI:
					iregs[o.dst] = aux[op].immI
				case tMovF:
					fregs[o.dst] = fregs[o.a]
				case tMovI:
					iregs[o.dst] = iregs[o.a]

				case tAddF:
					fregs[o.dst] = fregs[o.a] + fregs[o.b]
				case tSubF:
					fregs[o.dst] = fregs[o.a] - fregs[o.b]
				case tMulF:
					fregs[o.dst] = fregs[o.a] * fregs[o.b]
				case tDivF:
					fregs[o.dst] = fregs[o.a] / fregs[o.b]
				case tMinF:
					fregs[o.dst] = math.Min(fregs[o.a], fregs[o.b])
				case tMaxF:
					fregs[o.dst] = math.Max(fregs[o.a], fregs[o.b])
				case tEqF:
					iregs[o.dst] = b2i(fregs[o.a] == fregs[o.b])
				case tNeF:
					iregs[o.dst] = b2i(fregs[o.a] != fregs[o.b])
				case tLtF:
					iregs[o.dst] = b2i(fregs[o.a] < fregs[o.b])
				case tLeF:
					iregs[o.dst] = b2i(fregs[o.a] <= fregs[o.b])
				case tGtF:
					iregs[o.dst] = b2i(fregs[o.a] > fregs[o.b])
				case tGeF:
					iregs[o.dst] = b2i(fregs[o.a] >= fregs[o.b])

				case tAddI:
					iregs[o.dst] = iregs[o.a] + iregs[o.b]
				case tSubI:
					iregs[o.dst] = iregs[o.a] - iregs[o.b]
				case tMulI:
					iregs[o.dst] = iregs[o.a] * iregs[o.b]
				case tDivI:
					d := iregs[o.b]
					if d == 0 {
						// Route through EvalBin for the exact reference error.
						_, err = interp.EvalBin(aux[op].binop, interp.VI(iregs[o.a]), interp.VI(0))
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time + int64(o.pre)
						break blocks
					}
					iregs[o.dst] = iregs[o.a] / d
				case tRemI:
					d := iregs[o.b]
					if d == 0 {
						_, err = interp.EvalBin(aux[op].binop, interp.VI(iregs[o.a]), interp.VI(0))
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time + int64(o.pre)
						break blocks
					}
					iregs[o.dst] = iregs[o.a] % d
				case tMinI:
					if l, r := iregs[o.a], iregs[o.b]; l < r {
						iregs[o.dst] = l
					} else {
						iregs[o.dst] = r
					}
				case tMaxI:
					if l, r := iregs[o.a], iregs[o.b]; l > r {
						iregs[o.dst] = l
					} else {
						iregs[o.dst] = r
					}
				case tAndI:
					iregs[o.dst] = iregs[o.a] & iregs[o.b]
				case tOrI:
					iregs[o.dst] = iregs[o.a] | iregs[o.b]
				case tXorI:
					iregs[o.dst] = iregs[o.a] ^ iregs[o.b]
				case tShlI:
					iregs[o.dst] = iregs[o.a] << uint64(iregs[o.b]&63)
				case tShrI:
					iregs[o.dst] = iregs[o.a] >> uint64(iregs[o.b]&63)
				case tEqI:
					iregs[o.dst] = b2i(iregs[o.a] == iregs[o.b])
				case tNeI:
					iregs[o.dst] = b2i(iregs[o.a] != iregs[o.b])
				case tLtI:
					iregs[o.dst] = b2i(iregs[o.a] < iregs[o.b])
				case tLeI:
					iregs[o.dst] = b2i(iregs[o.a] <= iregs[o.b])
				case tGtI:
					iregs[o.dst] = b2i(iregs[o.a] > iregs[o.b])
				case tGeI:
					iregs[o.dst] = b2i(iregs[o.a] >= iregs[o.b])

				case tNegF:
					fregs[o.dst] = -fregs[o.a]
				case tNegI:
					iregs[o.dst] = -iregs[o.a]
				case tNotI:
					iregs[o.dst] = b2i(iregs[o.a] == 0)
				case tSqrt:
					fregs[o.dst] = math.Sqrt(fregs[o.a])
				case tExp:
					fregs[o.dst] = math.Exp(fregs[o.a])
				case tLog:
					fregs[o.dst] = math.Log(fregs[o.a])
				case tAbsF:
					fregs[o.dst] = math.Abs(fregs[o.a])
				case tAbsI:
					if v := iregs[o.a]; v < 0 {
						iregs[o.dst] = -v
					} else {
						iregs[o.dst] = v
					}
				case tFloor:
					fregs[o.dst] = math.Floor(fregs[o.a])
				case tCvtIF:
					fregs[o.dst] = float64(iregs[o.a])
				case tCvtFI:
					iregs[o.dst] = interp.TruncFI(fregs[o.a])

				case tLoadF:
					time += int64(o.pre) // sync: time is exact from here
					idx := iregs[o.a]
					data := tArrF[o.arr]
					if uint64(idx) >= uint64(len(data)) {
						if _, err = m.mm.LoadF(int32(o.arr), idx); err == nil {
							err = fmt.Errorf("load out of bounds")
						}
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					addr := tBase[o.arr] + idx*8
					if portOn && !(time < hTime || (time == hTime && cid < hID)) && !cc.Probe(addr) {
						// Would miss past the horizon: the next memory-port
						// grant may belong to another core. Yield; the load
						// re-executes once this core is minimal again.
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					var lat int64
					if cc.Access(addr) {
						lat = l1Hit
					} else {
						start := time
						if portOn {
							if portFree > start {
								start = portFree
							}
							portFree = start + portCycles
							portBusy += portCycles
						}
						lat = start - time + l1Miss
					}
					fregs[o.dst] = data[idx]
					time += lat
					if profOn {
						if tac := aux[op].tac; tac >= 0 {
							prof[tac][0] += lat
							prof[tac][1]++
						}
					}
				case tLoadI:
					time += int64(o.pre)
					idx := iregs[o.a]
					data := tArrI[o.arr]
					if uint64(idx) >= uint64(len(data)) {
						if _, err = m.mm.LoadI(int32(o.arr), idx); err == nil {
							err = fmt.Errorf("load out of bounds")
						}
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					addr := tBase[o.arr] + idx*8
					if portOn && !(time < hTime || (time == hTime && cid < hID)) && !cc.Probe(addr) {
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					var lat int64
					if cc.Access(addr) {
						lat = l1Hit
					} else {
						start := time
						if portOn {
							if portFree > start {
								start = portFree
							}
							portFree = start + portCycles
							portBusy += portCycles
						}
						lat = start - time + l1Miss
					}
					iregs[o.dst] = data[idx]
					time += lat
					if profOn {
						if tac := aux[op].tac; tac >= 0 {
							prof[tac][0] += lat
							prof[tac][1]++
						}
					}

				case tStoreF:
					idx := iregs[o.a]
					data := tArrF[o.arr]
					if uint64(idx) >= uint64(len(data)) {
						if err = m.mm.StoreF(int32(o.arr), idx, fregs[o.b]); err == nil {
							err = fmt.Errorf("store out of bounds")
						}
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time + int64(o.pre)
						break blocks
					}
					data[idx] = fregs[o.b]
				case tStoreI:
					idx := iregs[o.a]
					data := tArrI[o.arr]
					if uint64(idx) >= uint64(len(data)) {
						if err = m.mm.StoreI(int32(o.arr), idx, iregs[o.b]); err == nil {
							err = fmt.Errorf("store out of bounds")
						}
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time + int64(o.pre)
						break blocks
					}
					data[idx] = iregs[o.b]

				case tEnqF, tEnqI:
					time += int64(o.pre) // sync: comm timing is exact from here
					q := queues[o.b]
					if q == nil {
						if steps+int64(op-op0) > 0 {
							// Mid-chain: yield first; the error is raised on the
							// next pick, when this core is minimal.
							steps += int64(op - op0)
							c.pc = int(aux[op].pc)
							c.time = time
							break blocks
						}
						err = fmt.Errorf("no hardware queue %d (cross-group transfer)", o.b)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					if q.Full() {
						// Only a full queue needs scheduler ordering: a pop the
						// scheduler owes first may free the slot, so block only
						// while provably ahead of the horizon, else yield.
						if !(time < hTime || (time == hTime && cid < hID)) {
							steps += int64(op - op0)
							c.pc = int(aux[op].pc)
							c.time = time
							break blocks
						}
						c.blocked = blockedFull
						c.blockQ = q
						c.blockAt = time
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					// The success path runs even past the horizon: the queue is
					// point-to-point, so this push appends to the tail with
					// timestamps derived only from this core's own time. Pops
					// the scheduler owes first only shorten the queue (they
					// cannot fill it), and an empty-blocked consumer woken now
					// dequeues with the same start time it would have seen had
					// it blocked and been woken in scheduler order. Nothing
					// records the occupancy a push sees, so the relaxed order
					// is unobservable.
					var v interp.Value
					if o.u == tEnqF {
						v = interp.Value{K: ir.F64, F: fregs[o.a]}
					} else {
						v = interp.Value{K: ir.I64, I: iregs[o.a]}
					}
					q.Push(v, time+transferLat, aux[op].edge)
					time += enqLat
					if dst := m.coreByID(q.Dst); dst != nil && dst.blocked == blockedEmpty && dst.blockQ == q {
						dst.blocked = notBlocked
						dst.blockQ = nil
						// The wake adds exactly one runnable core, so the new
						// horizon is the min of the old one and that core —
						// no rescan needed.
						if dst.time < hTime || (dst.time == hTime && dst.id < hID) {
							hTime, hID = dst.time, dst.id
						}
					}

				case tDeqF, tDeqI:
					time += int64(o.pre) // sync: comm timing is exact from here
					q := queues[o.b]
					if q == nil {
						if steps+int64(op-op0) > 0 {
							steps += int64(op - op0)
							c.pc = int(aux[op].pc)
							c.time = time
							break blocks
						}
						err = fmt.Errorf("no hardware queue %d (cross-group transfer)", o.b)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					if !(time < hTime || (time == hTime && cid < hID)) {
						// Past the horizon a pop may still be safe: if the
						// producer has halted, no future push exists, so the
						// head (FIFO) and every Full() outcome are already
						// final. Otherwise wait for the scheduler — popping
						// early could spare the producer a full-queue stall it
						// is owed in scheduler order.
						if src := m.coreByID(q.Src); src == nil || !src.halted || q.Empty() {
							steps += int64(op - op0)
							c.pc = int(aux[op].pc)
							c.time = time
							break blocks
						}
					}
					if q.Empty() {
						c.blocked = blockedEmpty
						c.blockQ = q
						c.blockAt = time
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					// Every queued value has the queue's class, which is this
					// dequeue's kind (tcompile.go).
					e := q.Pop()
					if dbgEdges && aux[op].edge != e.Edge {
						err = fmt.Errorf("queue %s FIFO mismatch: dequeue expects edge %d, head carries edge %d", q, aux[op].edge, e.Edge)
						steps += int64(op - op0)
						c.pc = int(aux[op].pc)
						c.time = time
						break blocks
					}
					start := time
					if e.AvailAt > start {
						start = e.AvailAt
					}
					c.deqSt += start - time
					if o.u == tDeqF {
						fregs[o.dst] = e.V.F
					} else {
						iregs[o.dst] = e.V.I
					}
					time = start + deqLat
					if src := m.coreByID(q.Src); src != nil && src.blocked == blockedFull && src.blockQ == q {
						src.blocked = notBlocked
						src.blockQ = nil
						src.enqSt += start - src.blockAt
						if src.time < start {
							src.time = start
						}
						// The wake adds exactly one runnable core, so the new
						// horizon is the min of the old one and that core —
						// no rescan needed.
						if src.time < hTime || (src.time == hTime && src.id < hID) {
							hTime, hID = src.time, src.id
						}
					}

				default:
					err = fmt.Errorf("threaded: unknown micro-op %d", o.u)
					steps += int64(op - op0)
					c.pc = int(aux[op].pc)
					c.time = time + int64(o.pre)
					break blocks
				}
			}
			steps += int64(len(ops) - op0)
			time += b.tail // remaining folded charge since the last sync point

			switch b.term {
			case ttJp:
				time += b.tlat
				steps++
				t := b.tgt
				b = &blks[t.blk]
				ops, aux = b.ops, b.aux
				op = int(t.op)
				// Taken targets can land mid-block: the entry adjustment makes
				// the next sync point net out to the charges actually due.
				time -= preAt(b, op)
				continue

			case ttFjp:
				time += b.tlat
				steps++
				var t tref
				if iregs[b.a] == 0 {
					t = b.tgt
				} else {
					t = b.fall
				}
				b = &blks[t.blk]
				ops, aux = b.ops, b.aux
				op = int(t.op)
				time -= preAt(b, op)
				continue

			case ttJr:
				tgt := iregs[b.a]
				time += b.tlat
				steps++
				if tgt != driverLen {
					// Off-script indirect jump: hand the run over to the
					// reference scheduler, which handles any target
					// (including an out-of-program pc, with the exact
					// reference error).
					c.pc = int(tgt)
					c.time = time
					handOver = true
					break blocks
				}
				t := b.tgt
				b = &blks[t.blk]
				ops, aux = b.ops, b.aux
				op = int(t.op)
				time -= preAt(b, op)
				continue

			case ttHalt:
				c.halted = true
				steps++
				// Box the live-out registers so result() extracts exact Values.
				for _, r := range tp.named {
					c.regs[r] = tc.boxed(r)
				}
				c.pc = int(b.termPC)
				c.time = time
				break blocks
			}
		}

		c.instrs += steps
		stepsTotal += steps
		if err != nil {
			m.memPortFree = portFree
			m.portBusy = portBusy
			return nil, fmt.Errorf("sim: core %d pc %d t=%d: %w", c.id, c.pc, c.time, err)
		}
		if stepsTotal > maxSteps {
			m.memPortFree = portFree
			m.portBusy = portBusy
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d (livelock?)\n%s", maxSteps, m.dump())
		}
		if handOver {
			m.memPortFree = portFree
			m.portBusy = portBusy
			return m.handOver(ctx, stepsTotal)
		}
	}
}

// pickCore2 returns the scheduler's (time, id)-minimal runnable core (the
// one pickCore returns) plus the horizon: the (time, id) of the second
// minimum, up to which the pick provably stays the scheduler's choice.
// Blocked cores are excluded: only a queue operation can wake one, and trun
// tightens the horizon at every wake.
func (m *Machine) pickCore2() (*coreState, int64, int) {
	var best, second *coreState
	for _, o := range m.cores {
		if o.halted || o.blocked != notBlocked {
			continue
		}
		if best == nil || o.time < best.time {
			second = best
			best = o
		} else if second == nil || o.time < second.time {
			second = o
		}
	}
	if second == nil {
		return best, math.MaxInt64, int(math.MaxInt32)
	}
	return best, second.time, second.id
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
