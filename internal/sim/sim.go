// Package sim is the machine simulator: N in-order single-issue cores with
// a shared memory, per-core L1 timing caches, and the paper's hardware
// communication queues. It plays the role the Mambo Blue Gene/Q simulator
// plays in the paper's evaluation: it charges a configurable latency per
// instruction, makes enqueue/dequeue block on full/empty queues, and delays
// the visibility of transferred values by the queue transfer latency
// (Fig 11).
//
// The simulation is a deterministic discrete-event loop: among all runnable
// cores the one with the smallest local time executes its next instruction.
// Because cores interact only through the queues (the compiler never splits
// ordered memory accesses across cores), this ordering yields the same
// result as a cycle-by-cycle lockstep simulation.
//
// A run's observability events (internal/obs) leave the simulator one way:
// as the recording of an obs.Recorder attached as Config.Sink, filled in
// canonical order when the run ends (obs.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"fgp/internal/cost"
	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
	"fgp/internal/obs"
	"fgp/internal/queue"
)

// Config parameterizes the machine.
type Config struct {
	Cores           int
	QueueLen        int   // slots per queue (paper default: 20)
	TransferLatency int64 // cycles before an enqueued value is visible (paper default: 5)
	Cost            cost.Table
	Cache           mem.CacheConfig
	// DebugEdges verifies that every dequeued value carries the edge tag
	// the dequeue instruction expects, catching compiler FIFO-order bugs.
	DebugEdges bool
	// CollectProfile records per-TAC-instruction load latencies, consumed
	// by the partitioner as profile feedback.
	CollectProfile bool
	// GroupSize restricts queue connectivity: hardware queues exist only
	// between cores in the same group of this size (cores [0,G), [G,2G),
	// ...). 0 means all-to-all. The paper scales the design by grouping
	// cores and configuring queues within a group (Section II).
	GroupSize int
	// MemPortCycles is the occupancy of the shared memory port per L1
	// miss: consecutive misses from any cores are serialized at this rate,
	// modeling the finite miss bandwidth the cores share below their
	// private L1s (on BG/Q, the crossbar to the shared L2). 0 disables the
	// model (infinite bandwidth).
	MemPortCycles int64
	// MaxSteps bounds total executed instructions (runaway guard).
	MaxSteps int64
	// Sink, when non-nil, records the typed observability event stream —
	// instruction retires, queue operations, stall windows with causes,
	// region markers — in canonical order after the run, identical under
	// both engines. A nil recorder costs nothing: every emission hides
	// behind one predictable branch.
	Sink *obs.Recorder
	// Engine selects the execution engine by name: EngineThreaded (the
	// default when empty; block-fused threaded code, see threaded.go) or
	// EngineReference (one global scheduling decision per executed
	// instruction, the oracle the threaded engine is validated against).
	// Validate rejects any other name. Both engines produce bit-identical
	// Results and event streams, which the determinism tests enforce.
	Engine string
}

// Engine names accepted by Config.Engine.
const (
	EngineThreaded  = "threaded"
	EngineReference = "reference"
)

// Engines lists the selectable execution engines, default first.
func Engines() []string { return []string{EngineThreaded, EngineReference} }

// DefaultConfig returns the configuration used by the paper's main
// experiments: queue length 20, transfer latency 5 cycles.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:           cores,
		QueueLen:        20,
		TransferLatency: 5,
		Cost:            cost.Default(),
		Cache:           mem.DefaultCache(),
		MemPortCycles:   32,
		MaxSteps:        2_000_000_000,
	}
}

// QID computes the queue index for a (src, dst, class) triple.
func QID(src, dst int, class ir.Kind, cores int) int32 {
	c := int32(0)
	if class == ir.I64 {
		c = 1
	}
	return int32(src*cores+dst)*2 + c
}

// queueClass is the register class QID encodes in a queue id's low bit.
func queueClass(q int32) ir.Kind {
	if q&1 == 1 {
		return ir.I64
	}
	return ir.F64
}

// Result summarizes one simulation.
type Result struct {
	Cycles        int64
	PerCoreCycles []int64
	PerCoreInstrs []int64
	EnqStalls     []int64 // cycles spent blocked on full queues, per core
	DeqStalls     []int64 // cycles spent blocked/waiting on dequeues, per core
	QueuesUsed    int     // distinct queues that carried at least one value
	PairsUsed     int     // distinct (sender, receiver) core pairs used
	Transfers     int64   // total values moved through queues
	LoadHits      int64
	LoadMisses    int64
	// LiveOut holds the final values of registers named in the primary
	// program's RegName map for requested live-out temps.
	LiveOut map[string]interp.Value
	// LoadProfile maps TAC instruction id -> (total latency, count), when
	// CollectProfile is set.
	LoadProfile map[int32][2]int64
	// MemPortBusyCycles totals the cycles the shared memory port spent
	// occupied serializing L1 misses (Config.MemPortCycles per miss).
	MemPortBusyCycles int64
}

// ErrDeadlock is wrapped by the error returned when all unfinished cores
// are blocked on queues.
var ErrDeadlock = errors.New("sim: deadlock")

type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedFull
	blockedEmpty
)

type coreState struct {
	id      int
	prog    *isa.Program
	pc      int
	time    int64
	regs    []interp.Value
	halted  bool
	blocked blockKind
	blockQ  *queue.Queue
	blockAt int64
	instrs  int64
	enqSt   int64
	deqSt   int64
	cache   *mem.Cache
}

// Machine wires programs, memory and queues together.
type Machine struct {
	cfg    Config
	mm     *mem.Memory
	cores  []*coreState
	queues []*queue.Queue
	// memPortFree is the time at which the shared memory port next accepts
	// an L1 miss (see Config.MemPortCycles).
	memPortFree int64
	// prof accumulates (total latency, count) per TAC instruction id when
	// Config.CollectProfile is set; dense because TAC ids are. result()
	// converts it to the sparse LoadProfile map.
	prof [][2]int64
	// portBusy totals the cycles the memory port spent occupied.
	portBusy int64
	// Threaded-engine state (threaded.go/tcompile.go): each core's
	// translation and typed register files, and the machine's memory array
	// bindings; all nil until the first threaded-mode Run.
	tcores []tcore
	tArrF  [][]float64
	tArrI  [][]int64
	tBase  []int64

	// Observability state (see internal/obs); nil/false unless Config.Sink
	// records the run, so the hot paths pay one branch. obsAll records
	// queue, stall and region events besides retires; obsBuf collects
	// events per core in emission order, merged into canonical order and
	// handed to the recorder after the run.
	obsAll bool
	obsBuf [][]obs.Event
	// marks indexes each core's region marks by pc; regionStack tracks the
	// regions currently open on each core so an exit mark on a shared merge
	// point only fires for the path that actually opened its region.
	marks       []map[int][]isa.Mark
	regionStack [][]int32
}

// New builds a machine for the given per-core programs. progs[i] runs on
// core i; len(progs) must not exceed cfg.Cores (idle cores are legal).
func New(progs []*isa.Program, memory *mem.Memory, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("sim: no programs")
	}
	if cfg.Cores < len(progs) {
		return nil, fmt.Errorf("sim: %d programs but only %d cores", len(progs), cfg.Cores)
	}
	m := &Machine{cfg: cfg, mm: memory}
	if cfg.CollectProfile {
		maxTac := int32(-1)
		for _, p := range progs {
			for i := range p.Instrs {
				if t := p.Instrs[i].Tac; t > maxTac {
					maxTac = t
				}
			}
		}
		m.prof = make([][2]int64, maxTac+1)
	}
	for i, p := range progs {
		m.cores = append(m.cores, &coreState{
			id:    i,
			prog:  p,
			regs:  make([]interp.Value, p.NRegs),
			cache: mem.NewCache(cfg.Cache),
		})
	}
	n := cfg.Cores
	m.queues = make([]*queue.Queue, n*n*2)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if cfg.GroupSize > 0 && s/cfg.GroupSize != d/cfg.GroupSize {
				continue // no hardware queue across groups
			}
			m.queues[QID(s, d, ir.F64, n)] = queue.New(QID(s, d, ir.F64, n), s, d, ir.F64, cfg.QueueLen)
			m.queues[QID(s, d, ir.I64, n)] = queue.New(QID(s, d, ir.I64, n), s, d, ir.I64, cfg.QueueLen)
		}
	}
	return m, nil
}

// Run executes until every core halts. It returns a deadlock error (with a
// state dump wrapped around ErrDeadlock) if all unfinished cores block.
//
// Two engines produce the identical deterministic execution: the default
// threaded engine (runThreaded) executes each picked core in fused basic
// blocks, and the reference engine (runReference) re-enters the global
// scheduler after every instruction. Config.Engine selects between them.
// A run recorded through Config.Sink executes on the reference scheduler
// under either engine, so the event stream is the same.
//
// On error (deadlock, runaway), the events emitted so far are still
// recorded, so a partial trace of the failing run survives.
func (m *Machine) Run() (*Result, error) { return m.RunContext(context.Background()) }

// cancelStride is how many executed instructions may pass between context
// checks: the reference scheduler polls ctx.Done() every cancelStride
// steps, and the threaded engine polls at every pick and, when the context
// is cancellable, ends a pick at the first block boundary past
// cancelStride steps (a context.Background() run pays nothing). It bounds
// cancellation latency to about one stride — a few tens of microseconds of
// host time — while keeping the poll off the per-instruction hot path.
// Must be a power of two.
const cancelStride = 1 << 16

// RunContext is Run with cooperative cancellation: when ctx is cancelled or
// its deadline passes, the simulation aborts within about one stride
// (cancelStride instructions, plus the rest of a block) and returns
// ctx.Err() verbatim. Events emitted
// before the abort are still recorded, like any other error path.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	if m.cfg.Sink != nil {
		m.attachObs()
	}
	var res *Result
	var err error
	if m.cfg.Engine == EngineReference {
		res, err = m.runReference(ctx, 0)
	} else {
		res, err = m.runThreaded(ctx)
	}
	if m.cfg.Sink != nil {
		m.drainObs()
	}
	if err != nil {
		return nil, err
	}
	if m.cfg.DebugEdges {
		// Debug runs also audit the queue stats the observability layer
		// pairs transfers with (Transfers/Pops vs occupancy); a completed
		// program has drained its queues, so any drift is now visible.
		for _, q := range m.queues {
			if q == nil {
				continue
			}
			if serr := q.CheckStats(); serr != nil {
				return nil, fmt.Errorf("sim: %w", serr)
			}
		}
	}
	return res, nil
}

// runReference is the retained per-instruction scheduler: the seed
// implementation, kept verbatim as the oracle for the threaded engine (plus
// the strided cancellation poll both engines share). steps is the number of
// instructions already executed: 0 for a whole run, or the threaded engine's
// count when it hands a run over.
func (m *Machine) runReference(ctx context.Context, steps int64) (*Result, error) {
	done := ctx.Done()
	for {
		if done != nil && steps&(cancelStride-1) == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		c := m.pickCore()
		if c == nil {
			if m.allHalted() {
				break
			}
			return nil, fmt.Errorf("%w\n%s", ErrDeadlock, m.dump())
		}
		if err := m.step(c); err != nil {
			return nil, fmt.Errorf("sim: core %d pc %d t=%d: %w", c.id, c.pc, c.time, err)
		}
		steps++
		if steps > m.cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d (livelock?)\n%s", m.cfg.MaxSteps, m.dump())
		}
	}
	return m.result(), nil
}

func (m *Machine) pickCore() *coreState {
	var best *coreState
	for _, c := range m.cores {
		if c.halted || c.blocked != notBlocked {
			continue
		}
		if best == nil || c.time < best.time {
			best = c
		}
	}
	return best
}

func (m *Machine) allHalted() bool {
	for _, c := range m.cores {
		if !c.halted {
			return false
		}
	}
	return true
}

func (m *Machine) coreByID(id int) *coreState {
	if id < len(m.cores) {
		return m.cores[id]
	}
	return nil
}

// step executes one instruction on c, emitting the completion's
// observability events when the run is recorded. Every reference-scheduled
// instruction comes through here, so queue, stall and retire emission lives
// in one place. An unrecorded run pays one predictable branch over calling
// stepExec directly.
func (m *Machine) step(c *coreState) error {
	if m.cfg.Sink != nil {
		return m.stepObs(c)
	}
	return m.stepExec(c)
}

// stepObs is step's instrumented slow path: it brackets stepExec with the
// retire-event bookkeeping.
func (m *Machine) stepObs(c *coreState) error {
	prePC, preT := c.pc, c.time
	err := m.stepExec(c)
	if err == nil && c.blocked == notBlocked && (c.pc != prePC || c.halted) {
		m.evComplete(c.id, prePC, c.prog.Instrs[prePC].Op, preT, c.time)
	}
	return err
}

// stepExec executes one instruction on c.
func (m *Machine) stepExec(c *coreState) error {
	if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
		return fmt.Errorf("pc out of program (len %d)", len(c.prog.Instrs))
	}
	in := &c.prog.Instrs[c.pc]
	t := &m.cfg.Cost
	switch in.Op {
	case isa.Nop:
		c.time++
	case isa.ConstF:
		c.regs[in.Dst] = interp.VF(in.ImmF)
		c.time += t.Const
	case isa.ConstI:
		c.regs[in.Dst] = interp.VI(in.ImmI)
		c.time += t.Const
	case isa.Mov:
		c.regs[in.Dst] = c.regs[in.A]
		c.time += t.Mov
	case isa.Bin:
		v, err := interp.EvalBin(in.BinOp, c.regs[in.A], c.regs[in.B])
		if err != nil {
			return err
		}
		c.regs[in.Dst] = v
		c.time += t.Bin(in.BinOp, in.K)
	case isa.Un:
		v, err := interp.EvalUn(in.UnOp, c.regs[in.A])
		if err != nil {
			return err
		}
		c.regs[in.Dst] = v
		c.time += t.Un(in.UnOp, in.K)
	case isa.Load:
		idx := c.regs[in.A].I
		var v interp.Value
		if in.K == ir.F64 {
			f, err := m.mm.LoadF(in.Arr, idx)
			if err != nil {
				return err
			}
			v = interp.VF(f)
		} else {
			iv, err := m.mm.LoadI(in.Arr, idx)
			if err != nil {
				return err
			}
			v = interp.VI(iv)
		}
		c.regs[in.Dst] = v
		var lat int64
		if c.cache.Access(m.mm.Addr(in.Arr, idx)) {
			lat = t.L1Hit
		} else {
			start := c.time
			if m.cfg.MemPortCycles > 0 {
				if m.memPortFree > start {
					start = m.memPortFree
				}
				m.memPortFree = start + m.cfg.MemPortCycles
				m.portBusy += m.cfg.MemPortCycles
			}
			if m.obsAll {
				m.evStall(c.id, obs.CauseMemPort, c.time, start)
				m.evStall(c.id, obs.CauseL1Miss, start+t.L1Hit, start+t.L1Miss)
			}
			lat = start - c.time + t.L1Miss
		}
		c.time += lat
		if m.prof != nil && in.Tac >= 0 {
			m.prof[in.Tac][0] += lat
			m.prof[in.Tac][1]++
		}
	case isa.Store:
		idx := c.regs[in.A].I
		if in.K == ir.F64 {
			if err := m.mm.StoreF(in.Arr, idx, c.regs[in.B].F); err != nil {
				return err
			}
		} else {
			if err := m.mm.StoreI(in.Arr, idx, c.regs[in.B].I); err != nil {
				return err
			}
		}
		c.cache.Touch(m.mm.Addr(in.Arr, idx))
		c.time += t.Store
	case isa.Enq:
		q := m.queues[in.Q]
		if q == nil {
			return fmt.Errorf("no hardware queue %d (cross-group transfer)", in.Q)
		}
		if q.Full() {
			c.blocked = blockedFull
			c.blockQ = q
			c.blockAt = c.time
			return nil // pc unchanged; retried after a dequeue frees a slot
		}
		q.Push(c.regs[in.A], c.time+m.cfg.TransferLatency, in.Edge)
		if m.obsAll {
			m.evQueue(obs.KEnq, c.id, q, c.time)
		}
		c.time += t.Enq
		// Wake the receiver if it is blocked waiting for this queue.
		if dst := m.coreByID(q.Dst); dst != nil && dst.blocked == blockedEmpty && dst.blockQ == q {
			dst.blocked = notBlocked
			dst.blockQ = nil
		}
	case isa.Deq:
		q := m.queues[in.Q]
		if q == nil {
			return fmt.Errorf("no hardware queue %d (cross-group transfer)", in.Q)
		}
		if q.Empty() {
			c.blocked = blockedEmpty
			c.blockQ = q
			c.blockAt = c.time
			return nil
		}
		e := q.Pop()
		if m.cfg.DebugEdges && in.Edge != e.Edge {
			return fmt.Errorf("queue %s FIFO mismatch: dequeue expects edge %d, head carries edge %d", q, in.Edge, e.Edge)
		}
		start := c.time
		if e.AvailAt > start {
			start = e.AvailAt
		}
		c.deqSt += start - c.time
		if m.obsAll {
			// The deq-empty window covers both the blocked-on-empty wait and
			// the visibility wait on the transfer latency — exactly what the
			// deqSt counter accumulates.
			m.evStall(c.id, obs.CauseDeqEmpty, c.time, start)
		}
		if m.obsAll {
			m.evQueue(obs.KDeq, c.id, q, start)
		}
		c.regs[in.Dst] = e.V
		c.time = start + t.Deq
		// Wake the sender if it is blocked on a full queue.
		if src := m.coreByID(q.Src); src != nil && src.blocked == blockedFull && src.blockQ == q {
			src.blocked = notBlocked
			src.blockQ = nil
			src.enqSt += start - src.blockAt
			if m.obsAll {
				// The sender's enq-full window is known only now, at the
				// wake; emit it into the sender's buffer (the canonical merge
				// re-orders it by start time), matching enqSt exactly.
				m.evStall(src.id, obs.CauseEnqFull, src.blockAt, start)
			}
			if src.time < start {
				src.time = start
			}
		}
	case isa.Fjp:
		c.time += t.Branch
		if c.regs[in.A].I == 0 {
			c.pc = int(in.Tgt)
			c.instrs++
			return nil
		}
	case isa.Jp:
		c.time += t.Branch
		c.pc = int(in.Tgt)
		c.instrs++
		return nil
	case isa.Jr:
		c.time += t.Branch
		c.pc = int(c.regs[in.A].I)
		c.instrs++
		return nil
	case isa.Halt:
		c.halted = true
		c.instrs++
		return nil
	default:
		return fmt.Errorf("unknown opcode %s", in.Op)
	}
	c.pc++
	c.instrs++
	return nil
}

func (m *Machine) result() *Result {
	r := &Result{}
	if m.prof != nil {
		r.LoadProfile = map[int32][2]int64{}
		for tac, p := range m.prof {
			if p[1] > 0 {
				r.LoadProfile[int32(tac)] = p
			}
		}
	}
	for _, c := range m.cores {
		r.PerCoreCycles = append(r.PerCoreCycles, c.time)
		r.PerCoreInstrs = append(r.PerCoreInstrs, c.instrs)
		r.EnqStalls = append(r.EnqStalls, c.enqSt)
		r.DeqStalls = append(r.DeqStalls, c.deqSt)
		if c.time > r.Cycles {
			r.Cycles = c.time
		}
		r.LoadHits += c.cache.Hits
		r.LoadMisses += c.cache.Misses
	}
	pairs := map[[2]int]bool{}
	for _, q := range m.queues {
		if q != nil && q.Used() {
			r.QueuesUsed++
			r.Transfers += q.Transfers
			pairs[[2]int{q.Src, q.Dst}] = true
		}
	}
	r.PairsUsed = len(pairs)
	r.MemPortBusyCycles = m.portBusy
	// Extract live-out values from the primary core's named registers.
	primary := m.cores[0]
	if len(primary.prog.RegName) > 0 {
		r.LiveOut = map[string]interp.Value{}
		for reg, name := range primary.prog.RegName {
			r.LiveOut[name] = primary.regs[reg]
		}
	}
	return r
}

func (m *Machine) dump() string {
	var sb strings.Builder
	for _, c := range m.cores {
		state := "run"
		switch {
		case c.halted:
			state = "halted"
		case c.blocked == blockedFull:
			state = fmt.Sprintf("blocked-full on %s", c.blockQ)
		case c.blocked == blockedEmpty:
			state = fmt.Sprintf("blocked-empty on %s", c.blockQ)
		}
		fmt.Fprintf(&sb, "  core %d: pc=%d t=%d %s\n", c.id, c.pc, c.time, state)
	}
	for _, q := range m.queues {
		if q != nil && q.Len() > 0 {
			fmt.Fprintf(&sb, "  %s has %d undelivered entries\n", q, q.Len())
		}
	}
	return sb.String()
}
