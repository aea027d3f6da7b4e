package sim

import (
	"errors"
	"strings"
	"testing"

	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
	"fgp/internal/obs"
)

// prog builds a program from instructions, assigning register counts.
func prog(core int, instrs ...isa.Instr) *isa.Program {
	p := &isa.Program{Core: core}
	maxReg := isa.Reg(-1)
	for _, in := range instrs {
		for _, r := range []isa.Reg{in.Dst, in.A, in.B} {
			if r > maxReg {
				maxReg = r
			}
		}
		p.Append(in)
	}
	p.NRegs = int(maxReg) + 1
	return p
}

func cfg2() Config {
	c := DefaultConfig(2)
	c.Cache = mem.CacheConfig{} // uniform memory for timing determinism
	c.MemPortCycles = 0
	return c
}

const noReg = isa.NoReg

func TestHaltOnly(t *testing.T) {
	p := prog(0, isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg})
	m, err := New([]*isa.Program{p}, mem.New(), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("halt-only program took %d cycles", res.Cycles)
	}
}

func TestArithmeticAndMemory(t *testing.T) {
	mm := mem.New()
	mm.AddF("a", []float64{3, 4})
	p := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 0},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Load, Dst: 2, A: 0, B: noReg, K: ir.F64, Arr: 0},
		isa.Instr{Op: isa.Load, Dst: 3, A: 1, B: noReg, K: ir.F64, Arr: 0},
		isa.Instr{Op: isa.Bin, BinOp: ir.Mul, K: ir.F64, Dst: 4, A: 2, B: 3},
		isa.Instr{Op: isa.Store, A: 0, B: 4, Dst: noReg, K: ir.F64, Arr: 0},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, err := New([]*isa.Program{p}, mm, cfg1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mm.SnapshotF("a")[0]; got != 12 {
		t.Errorf("a[0] = %g, want 12", got)
	}
}

func cfg1() Config {
	c := DefaultConfig(1)
	c.Cache = mem.CacheConfig{}
	c.MemPortCycles = 0
	return c
}

// TestTransferLatencyVisibility reproduces the paper's Fig 11: a value
// enqueued at time T_A becomes visible at T_A + transfer latency. A core
// that dequeues early stalls until then; a core that dequeues later
// proceeds immediately.
func TestTransferLatencyVisibility(t *testing.T) {
	// Core 0: spend ~10 cycles, then enqueue.
	// Core 1: dequeue immediately (early), must wait for visibility.
	mk := func(senderDelayConsts int) (*isa.Program, *isa.Program) {
		var sIns []isa.Instr
		for i := 0; i < senderDelayConsts; i++ {
			sIns = append(sIns, isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 7})
		}
		sIns = append(sIns,
			isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
		sender := prog(0, sIns...)
		receiver := prog(1,
			isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
		return sender, receiver
	}

	c := cfg2()
	c.TransferLatency = 5
	c.DebugEdges = true

	sender, receiver := mk(10) // sender enqueues at t=10
	m, err := New([]*isa.Program{sender, receiver}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Receiver dequeues at max(0, 10+5) + deq cost = 16.
	if res.PerCoreCycles[1] != 16 {
		t.Errorf("early dequeuer finished at %d, want 16", res.PerCoreCycles[1])
	}
	if res.DeqStalls[1] != 15 {
		t.Errorf("dequeue stall = %d, want 15", res.DeqStalls[1])
	}

	// Late dequeuer: pad the receiver so it dequeues after visibility.
	sender2, _ := mk(2) // enqueue at t=2, visible at 7
	var rIns []isa.Instr
	for i := 0; i < 20; i++ {
		rIns = append(rIns, isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 0})
	}
	rIns = append(rIns,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	receiver2 := prog(1, rIns...)
	m2, err := New([]*isa.Program{sender2, receiver2}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Receiver reaches the dequeue at t=20 > 7: no stall, finishes at 21.
	if res2.PerCoreCycles[1] != 21 {
		t.Errorf("late dequeuer finished at %d, want 21", res2.PerCoreCycles[1])
	}
	if res2.DeqStalls[1] != 0 {
		t.Errorf("late dequeuer stalled %d cycles, want 0", res2.DeqStalls[1])
	}
}

func TestEnqueueBlocksWhenFull(t *testing.T) {
	// Queue of length 2; sender pushes 3 values immediately; receiver
	// dequeues after a long delay. The third enqueue must block until the
	// first dequeue frees a slot.
	c := cfg2()
	c.QueueLen = 2
	c.TransferLatency = 5
	q := QID(0, 1, ir.I64, 2)
	sender := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	var rIns []isa.Instr
	for i := 0; i < 50; i++ {
		rIns = append(rIns, isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 0})
	}
	for i := 0; i < 3; i++ {
		rIns = append(rIns, isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 1})
	}
	rIns = append(rIns, isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg})
	receiver := prog(1, rIns...)

	m, err := New([]*isa.Program{sender, receiver}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EnqStalls[0] == 0 {
		t.Error("third enqueue should have blocked on the full queue")
	}
	// Sender's final enqueue completes only after the receiver's first
	// dequeue at ~t=50.
	if res.PerCoreCycles[0] < 50 {
		t.Errorf("sender finished at %d, expected to wait for a slot (~50)", res.PerCoreCycles[0])
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two cores each dequeue from the other first: classic deadlock.
	c := cfg2()
	p0 := prog(0,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(1, 0, ir.I64, 2), Edge: 1},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Enq, A: 1, B: noReg, Dst: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 2},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	p1 := prog(1,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 2},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Enq, A: 1, B: noReg, Dst: noReg, K: ir.I64, Q: QID(1, 0, ir.I64, 2), Edge: 1},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, err := New([]*isa.Program{p0, p1}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("expected deadlock error, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "blocked-empty") {
		t.Errorf("deadlock dump missing core states: %v", err)
	}
}

func TestEdgeTagMismatchDetected(t *testing.T) {
	c := cfg2()
	c.DebugEdges = true
	q := QID(0, 1, ir.I64, 2)
	p0 := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 7},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	p1 := prog(1,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 9},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, err := New([]*isa.Program{p0, p1}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "FIFO mismatch") {
		t.Errorf("expected FIFO mismatch error, got %v", err)
	}
}

func TestBranching(t *testing.T) {
	// if (r0 == 0) skip the store; run twice with different conditions.
	run := func(cond int64) float64 {
		mm := mem.New()
		mm.AddF("o", []float64{0})
		p := prog(0,
			isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: cond},
			isa.Instr{Op: isa.Fjp, A: 0, B: noReg, Dst: noReg, Tgt: 5},
			isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: 42},
			isa.Instr{Op: isa.ConstI, Dst: 2, A: noReg, B: noReg, ImmI: 0},
			isa.Instr{Op: isa.Store, A: 2, B: 1, Dst: noReg, K: ir.F64, Arr: 0},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
		m, err := New([]*isa.Program{p}, mm, cfg1())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return mm.SnapshotF("o")[0]
	}
	if got := run(1); got != 42 {
		t.Errorf("taken path: o[0] = %g, want 42", got)
	}
	if got := run(0); got != 0 {
		t.Errorf("skipped path: o[0] = %g, want 0", got)
	}
}

func TestIndirectJump(t *testing.T) {
	mm := mem.New()
	mm.AddF("o", []float64{0})
	p := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 4}, // target
		isa.Instr{Op: isa.Jr, A: 0, B: noReg, Dst: noReg},
		isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: -1}, // skipped
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},         // skipped
		isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: 5},
		isa.Instr{Op: isa.ConstI, Dst: 2, A: noReg, B: noReg, ImmI: 0},
		isa.Instr{Op: isa.Store, A: 2, B: 1, Dst: noReg, K: ir.F64, Arr: 0},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, err := New([]*isa.Program{p}, mm, cfg1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mm.SnapshotF("o")[0]; got != 5 {
		t.Errorf("o[0] = %g, want 5 (jr must skip to index 4)", got)
	}
}

func TestMemPortSerializesMisses(t *testing.T) {
	// Two cores each issue one cold miss at t=0; with port occupancy the
	// second miss queues behind the first.
	mkProg := func(core int) *isa.Program {
		return prog(core,
			isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: int64(core) * 512},
			isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
	}
	run := func(port int64) (int64, int64) {
		mm := mem.New()
		mm.AddF("a", make([]float64, 1024))
		c := DefaultConfig(2)
		c.MemPortCycles = port
		m, err := New([]*isa.Program{mkProg(0), mkProg(1)}, mm, c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.PerCoreCycles[0], res.PerCoreCycles[1]
	}
	a0, b0 := run(0)
	if a0 != b0 {
		t.Errorf("without port contention both cores finish together: %d vs %d", a0, b0)
	}
	a1, b1 := run(30)
	if a1 == b1 {
		t.Error("with port contention one core's miss must queue behind the other")
	}
	if max64(a1, b1)-min64(a1, b1) != 30 {
		t.Errorf("queueing delay = %d, want 30", max64(a1, b1)-min64(a1, b1))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestDeterminism(t *testing.T) {
	// Two runs of a ping-pong program produce identical cycle counts.
	c := cfg2()
	qa := QID(0, 1, ir.I64, 2)
	qb := QID(1, 0, ir.I64, 2)
	p0 := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 5},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: qa, Edge: 1},
		isa.Instr{Op: isa.Deq, Dst: 1, A: noReg, B: noReg, K: ir.I64, Q: qb, Edge: 2},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	p1 := prog(1,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: qa, Edge: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 1, A: 0, B: 0},
		isa.Instr{Op: isa.Enq, A: 1, B: noReg, Dst: noReg, K: ir.I64, Q: qb, Edge: 2},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	run := func() int64 {
		m, err := New([]*isa.Program{p0, p1}, mem.New(), c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if run() != run() {
		t.Error("simulation is not deterministic")
	}
}

func TestRuntimeErrors(t *testing.T) {
	t.Run("int div zero", func(t *testing.T) {
		p := prog(0,
			isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1},
			isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 0},
			isa.Instr{Op: isa.Bin, BinOp: ir.Div, K: ir.I64, Dst: 2, A: 0, B: 1},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
		m, _ := New([]*isa.Program{p}, mem.New(), cfg1())
		if _, err := m.Run(); err == nil {
			t.Error("expected division-by-zero error")
		}
	})
	t.Run("load out of bounds", func(t *testing.T) {
		mm := mem.New()
		mm.AddF("a", make([]float64, 2))
		p := prog(0,
			isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 5},
			isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
		m, _ := New([]*isa.Program{p}, mm, cfg1())
		if _, err := m.Run(); err == nil {
			t.Error("expected bounds error")
		}
	})
	t.Run("pc off the end", func(t *testing.T) {
		p := prog(0, isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1})
		m, _ := New([]*isa.Program{p}, mem.New(), cfg1())
		if _, err := m.Run(); err == nil {
			t.Error("expected pc-out-of-program error")
		}
	})
}

func TestConfigValidation(t *testing.T) {
	p := prog(0, isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg})
	if _, err := New(nil, mem.New(), DefaultConfig(1)); err == nil {
		t.Error("no programs must error")
	}
	c := DefaultConfig(1)
	if _, err := New([]*isa.Program{p, p}, mem.New(), c); err == nil {
		t.Error("more programs than cores must error")
	}
	c.QueueLen = 0
	if _, err := New([]*isa.Program{p}, mem.New(), c); err == nil {
		t.Error("zero queue length must error")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	p := prog(0,
		isa.Instr{Op: isa.Jp, Tgt: 0, Dst: noReg, A: noReg, B: noReg},
	)
	c := cfg1()
	c.MaxSteps = 100
	m, _ := New([]*isa.Program{p}, mem.New(), c)
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "MaxSteps") {
		t.Errorf("expected MaxSteps error, got %v", err)
	}
}

func TestQueueStatsInResult(t *testing.T) {
	c := cfg2()
	q := QID(0, 1, ir.I64, 2)
	p0 := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	p1 := prog(1,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, _ := New([]*isa.Program{p0, p1}, mem.New(), c)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.QueuesUsed != 1 || res.PairsUsed != 1 || res.Transfers != 2 {
		t.Errorf("queue stats: used=%d pairs=%d transfers=%d", res.QueuesUsed, res.PairsUsed, res.Transfers)
	}
}

func TestLiveOutExtraction(t *testing.T) {
	p := prog(0,
		isa.Instr{Op: isa.ConstF, Dst: 0, A: noReg, B: noReg, ImmF: 2.5},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	p.RegName = map[isa.Reg]string{0: "result"}
	m, _ := New([]*isa.Program{p}, mem.New(), cfg1())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.LiveOut["result"]; !ok || v.F != 2.5 {
		t.Errorf("LiveOut = %v", res.LiveOut)
	}
}

func TestTraceOutput(t *testing.T) {
	rec := obs.NewRecorder()
	c := cfg1()
	c.Sink = rec
	p := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 1, A: 0, B: 0},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	m, err := New([]*isa.Program{p}, mem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := obs.RenderTrace("text", rec.Meta, rec.Events)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, frag := range []string{"t=0..1 core=0 pc=0 consti", "pc=1 bin", "halt"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	// Three completed instructions, three lines.
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("trace has %d lines, want 3:\n%s", got, out)
	}
}
