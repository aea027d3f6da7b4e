// TestChargesEveryTableEntry pins the simulator to the latency table for
// the entries the cost package's own matrices cannot reach (they are
// charged per instruction class, not per operator): Mov, Const, Branch,
// Store, L1Hit, L1Miss, Enq and Deq. Each case runs one micro-program
// twice — once at default latencies, once with a single table entry
// inflated — and asserts total cycles grow by exactly (occurrences × Δ),
// proving the entry is charged where (and only as often as) expected.
// Together with internal/cost's ledger test this exercises every field of
// cost.Table.

package sim

import (
	"testing"

	"fgp/internal/cost"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
)

func runResult(t *testing.T, progs []*isa.Program, mm *mem.Memory, cfg Config) *Result {
	t.Helper()
	m, err := New(progs, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChargesEveryTableEntry(t *testing.T) {
	const delta = 13 // prime, so an accidental ×2 or ÷2 cannot cancel out

	halt := isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg}
	consti := func(dst isa.Reg, v int64) isa.Instr {
		return isa.Instr{Op: isa.ConstI, Dst: dst, A: noReg, B: noReg, ImmI: v}
	}

	type testCase struct {
		name   string
		bump   func(*cost.Table) // inflate one entry by delta
		count  int64             // expected occurrences of that entry
		memory func() *mem.Memory
		progs  func() []*isa.Program
		config func() Config // base config; the table is set afterwards
		// metric extracts the cycle count the entry must shift; nil means
		// the machine total. Queue-op latencies are pipeline-occupancy
		// charges on the issuing core, so those cases watch that core's
		// timeline rather than the machine total (which queue visibility
		// timing dominates).
		metric func(*Result) int64
	}

	singleCore := func(instrs ...isa.Instr) func() []*isa.Program {
		return func() []*isa.Program { return []*isa.Program{prog(0, instrs...)} }
	}

	cases := []testCase{
		{
			name:   "Const",
			bump:   func(t *cost.Table) { t.Const += delta },
			count:  3,
			memory: mem.New,
			progs: singleCore(
				consti(0, 1),
				consti(0, 2),
				isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: 2.5},
				halt,
			),
			config: cfg1,
		},
		{
			name:   "Mov",
			bump:   func(t *cost.Table) { t.Mov += delta },
			count:  4,
			memory: mem.New,
			progs: singleCore(
				consti(0, 7),
				isa.Instr{Op: isa.Mov, Dst: 1, A: 0, B: noReg},
				isa.Instr{Op: isa.Mov, Dst: 2, A: 1, B: noReg},
				isa.Instr{Op: isa.Mov, Dst: 3, A: 2, B: noReg},
				isa.Instr{Op: isa.Mov, Dst: 4, A: 3, B: noReg},
				halt,
			),
			config: cfg1,
		},
		{
			name:  "Branch",
			bump:  func(t *cost.Table) { t.Branch += delta },
			count: 3, // two unconditional jumps plus one taken conditional
			memory: func() *mem.Memory {
				return mem.New()
			},
			progs: singleCore(
				consti(0, 0),
				isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 2},
				isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 3},
				isa.Instr{Op: isa.Fjp, Dst: noReg, A: 0, B: noReg, Tgt: 4},
				halt,
			),
			config: cfg1,
		},
		{
			name:  "Store",
			bump:  func(t *cost.Table) { t.Store += delta },
			count: 2,
			memory: func() *mem.Memory {
				mm := mem.New()
				mm.AddF("a", make([]float64, 4))
				return mm
			},
			progs: singleCore(
				consti(0, 0),
				isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: 3},
				isa.Instr{Op: isa.Store, Dst: noReg, A: 0, B: 1, K: ir.F64, Arr: 0},
				isa.Instr{Op: isa.Store, Dst: noReg, A: 0, B: 1, K: ir.F64, Arr: 0},
				halt,
			),
			config: cfg1,
		},
		{
			// One cold load (miss) then two repeats (hits) of the same line.
			name:  "L1Hit",
			bump:  func(t *cost.Table) { t.L1Hit += delta },
			count: 2,
			memory: func() *mem.Memory {
				mm := mem.New()
				mm.AddF("a", make([]float64, 4))
				return mm
			},
			progs: singleCore(
				consti(0, 0),
				isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
				isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
				isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
				halt,
			),
			config: func() Config {
				c := DefaultConfig(1) // real cache, so hit/miss distinction exists
				c.MemPortCycles = 0
				return c
			},
		},
		{
			name:  "L1Miss",
			bump:  func(t *cost.Table) { t.L1Miss += delta },
			count: 1,
			memory: func() *mem.Memory {
				mm := mem.New()
				mm.AddF("a", make([]float64, 4))
				return mm
			},
			progs: singleCore(
				consti(0, 0),
				isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
				isa.Instr{Op: isa.Load, Dst: 1, A: 0, B: noReg, K: ir.F64, Arr: 0},
				halt,
			),
			config: func() Config {
				c := DefaultConfig(1)
				c.MemPortCycles = 0
				return c
			},
		},
		{
			// The enqueue delays visibility, so the receiver's finish time —
			// and the machine's total — shifts with it.
			name:   "Enq",
			bump:   func(t *cost.Table) { t.Enq += delta },
			count:  1,
			memory: mem.New,
			progs: func() []*isa.Program {
				sender := prog(0,
					consti(0, 42),
					isa.Instr{Op: isa.Enq, Dst: noReg, A: 0, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
					halt,
				)
				receiver := prog(1,
					isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
					halt,
				)
				return []*isa.Program{sender, receiver}
			},
			config: func() Config {
				c := cfg2()
				c.DebugEdges = true
				return c
			},
			metric: func(r *Result) int64 { return r.PerCoreCycles[0] },
		},
		{
			name:   "Deq",
			bump:   func(t *cost.Table) { t.Deq += delta },
			count:  1,
			memory: mem.New,
			progs: func() []*isa.Program {
				sender := prog(0,
					consti(0, 42),
					isa.Instr{Op: isa.Enq, Dst: noReg, A: 0, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
					halt,
				)
				receiver := prog(1,
					isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: QID(0, 1, ir.I64, 2), Edge: 1},
					halt,
				)
				return []*isa.Program{sender, receiver}
			},
			config: func() Config {
				c := cfg2()
				c.DebugEdges = true
				return c
			},
			metric: func(r *Result) int64 { return r.PerCoreCycles[1] },
		},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			metric := c.metric
			if metric == nil {
				metric = func(r *Result) int64 { return r.Cycles }
			}
			for _, engine := range Engines() {
				t.Run(engine, func(t *testing.T) {
					base := c.config()
					base.Engine = engine
					bumped := base
					c.bump(&bumped.Cost)
					before := metric(runResult(t, c.progs(), c.memory(), base))
					inflated := metric(runResult(t, c.progs(), c.memory(), bumped))
					if got, want := inflated-before, c.count*delta; got != want {
						t.Errorf("inflating %s by %d moved total cycles by %d, want %d (%d occurrence(s))",
							c.name, delta, got, want, c.count)
					}
				})
			}
		})
	}
}
