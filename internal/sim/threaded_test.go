package sim

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
)

// TestThreadedPartitionShape pins the coarse partition: blocks end only at
// real control transfers, branch targets resolve to mid-block (block, op)
// refs instead of forcing leaders, and the pcmap round-trips every pc.
func TestThreadedPartitionShape(t *testing.T) {
	// 0..2 straight-line, Fjp, Jp whose target lands mid-block, halt.
	p := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 3},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Sub, K: ir.I64, Dst: 0, A: 0, B: 1},
		isa.Instr{Op: isa.Fjp, A: 0, B: noReg, Dst: noReg, Tgt: 5},
		isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 2},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
	tp := compileThreaded(p, DefaultConfig(1).Cost)
	if !tp.ok {
		t.Fatalf("program ineligible: %s", tp.reason)
	}
	if len(tp.blocks) != 3 {
		t.Fatalf("got %d blocks, want 3 (blocks must end only at control transfers)", len(tp.blocks))
	}
	if got := len(tp.blocks[0].ops); got != 3 {
		t.Errorf("block 0 fused %d ops, want 3", got)
	}
	// The loop-back Jp targets pc 2, which is op 2 inside block 0 — a
	// mid-block entry, not a block leader.
	if want := (tref{blk: 0, op: 2}); tp.pcmap[2] != want {
		t.Errorf("pcmap[2] = %+v, want %+v", tp.pcmap[2], want)
	}
	if tp.blocks[1].term != ttJp || tp.blocks[1].tgt != (tref{blk: 0, op: 2}) {
		t.Errorf("loop-back block: term=%d tgt=%+v, want ttJp into {0 2}", tp.blocks[1].term, tp.blocks[1].tgt)
	}
	for pc := range p.Instrs {
		ref := tp.pcmap[pc]
		if got := pcAt(&tp.blocks[ref.blk], int(ref.op)); got != pc {
			t.Errorf("pcmap round-trip: pc %d maps to %+v which is pc %d", pc, ref, got)
		}
	}
}

// ineligibleCase is one program at the edge of what the translation pass
// accepts: it must refuse the program with reason, or translate it when
// reason is empty. runs marks the programs that also complete under the
// reference step (the others trap, loop forever, or name a queue the
// machine lacks).
type ineligibleCase struct {
	name   string
	prog   *isa.Program
	reason string
	runs   bool
}

func ineligibleCases() []ineligibleCase {
	ci := func(dst isa.Reg, v int64) isa.Instr {
		return isa.Instr{Op: isa.ConstI, Dst: dst, A: noReg, B: noReg, ImmI: v}
	}
	halt := isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg}
	// r1 is written on one path only, then read and named as a live-out:
	// an unassigned F64 register reads and boxes as the zero Value.
	f64Read := prog(0,
		ci(0, 0),
		isa.Instr{Op: isa.Fjp, A: 0, B: noReg, Dst: noReg, Tgt: 3},
		isa.Instr{Op: isa.ConstF, Dst: 1, A: noReg, B: noReg, ImmF: 2.5},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.F64, Dst: 2, A: 1, B: 1},
		halt,
	)
	f64Read.RegName = map[isa.Reg]string{1: "x", 2: "y"}
	return []ineligibleCase{
		{"empty", prog(0), "empty program", false},
		{"jr outside driver", prog(0,
			ci(0, 2),
			isa.Instr{Op: isa.Jr, A: 0, B: noReg, Dst: noReg},
			halt,
		), "indirect jump outside the canonical driver", true},
		{"branch target out of program", prog(0,
			isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 99},
			halt,
		), "branch target", false},
		{"kind conflict", prog(0,
			// ConstF pins r0 to F64; Fjp requires its condition to be I64.
			isa.Instr{Op: isa.ConstF, Dst: 0, A: noReg, B: noReg, ImmF: 1.5},
			isa.Instr{Op: isa.Fjp, Dst: noReg, A: 0, B: noReg, Tgt: 0},
			halt,
		), "kind conflict", false},
		{"possibly unassigned read", prog(0,
			// r0 shares r1's I64 kind but is never written.
			ci(1, 1),
			isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 2, A: 0, B: 1},
			halt,
		), "read of possibly-unassigned register 0", true},
		{"unassigned f64 read", f64Read, "", true},
		{"queue class mismatch", prog(0,
			// Queue 1 carries the I64 class (QID's low bit).
			isa.Instr{Op: isa.ConstF, Dst: 0, A: noReg, B: noReg, ImmF: 1.5},
			isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.F64, Q: 1, Edge: 1},
			halt,
		), "enq of kind f64 on queue 1 of class i64", true},
		{"queue id outside packing", prog(0,
			ci(0, 1),
			isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: 65537, Edge: 1},
			halt,
		), "queue id 65537 outside the packed encoding", false},
		{"edge tag outside packing", prog(0,
			// Edge tags live in taux, so a tag past 16 bits translates and
			// is still checked under DebugEdges.
			ci(0, 1),
			isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: 1, Edge: 70000},
			isa.Instr{Op: isa.Deq, Dst: 1, A: noReg, B: noReg, K: ir.I64, Q: 1, Edge: 70000},
			halt,
		), "", true},
		{"register count outside packing", prog(0,
			ci(70000, 1),
			halt,
		), "outside the packed encoding", true},
	}
}

// TestThreadedIneligibility covers the soundness checks that refuse a
// program, by reason, and the shapes next to them that translate: those
// must also run alone, under DebugEdges, exactly as on the reference.
func TestThreadedIneligibility(t *testing.T) {
	for _, tc := range ineligibleCases() {
		t.Run(tc.name, func(t *testing.T) {
			tp := compileThreaded(tc.prog, DefaultConfig(1).Cost)
			if tc.reason == "" {
				if !tp.ok {
					t.Fatalf("program refused: %s", tp.reason)
				}
				cfg := DefaultConfig(1)
				cfg.DebugEdges = true
				progs := []*isa.Program{tc.prog}
				ref, _ := runOn(t, progs, mem.New, cfg, EngineReference)
				thr, _ := runOn(t, progs, mem.New, cfg, EngineThreaded)
				if !reflect.DeepEqual(thr, ref) {
					t.Errorf("results diverge:\n  threaded  %+v\n  reference %+v", thr, ref)
				}
				return
			}
			if tp.ok {
				t.Fatalf("program unexpectedly eligible")
			}
			if !strings.Contains(tp.reason, tc.reason) {
				t.Errorf("reason = %q, want substring %q", tp.reason, tc.reason)
			}
		})
	}
}

// sumLoop is an eligible program that sums the 64-element array 0 with one
// load per iteration, so a neighbouring core interleaves with its L1
// misses, memory-port grants and block-granular picks.
func sumLoop(core int) *isa.Program {
	p := prog(core,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 0},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.ConstI, Dst: 2, A: noReg, B: noReg, ImmI: 64},
		isa.Instr{Op: isa.ConstF, Dst: 3, A: noReg, B: noReg, ImmF: 0},
		isa.Instr{Op: isa.Load, Dst: 4, A: 0, B: noReg, K: ir.F64, Arr: 0}, // 4: loop head
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.F64, Dst: 3, A: 3, B: 4},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 0, A: 0, B: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Lt, K: ir.I64, Dst: 5, A: 0, B: 2},
		isa.Instr{Op: isa.Fjp, Dst: noReg, A: 5, B: noReg, Tgt: 10},
		isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 4},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg}, // 10
	)
	p.RegName = map[isa.Reg]string{3: "sum"}
	return p
}

func sumMemory() *mem.Memory {
	mm := mem.New()
	a := make([]float64, 64)
	for i := range a {
		a[i] = float64(i) + 0.5
	}
	mm.AddF("a", a)
	return mm
}

// TestThreadedIneligibleNextToEligible runs every runnable case program
// beside an eligible core, in both core orders, and requires the threaded
// engine — which runs a machine with a refused core on the reference
// scheduler, and any other fully threaded — to reproduce the reference
// Result exactly.
func TestThreadedIneligibleNextToEligible(t *testing.T) {
	if tp := compileThreaded(sumLoop(0), DefaultConfig(2).Cost); !tp.ok {
		t.Fatalf("sumLoop must be eligible: %s", tp.reason)
	}
	for _, tc := range ineligibleCases() {
		if !tc.runs {
			continue
		}
		for _, order := range []string{"ineligible-first", "eligible-first"} {
			t.Run(tc.name+"/"+order, func(t *testing.T) {
				progs := []*isa.Program{tc.prog, sumLoop(1)}
				if order == "eligible-first" {
					progs = []*isa.Program{sumLoop(0), tc.prog}
				}
				cfg := DefaultConfig(2) // real L1 and memory port
				ref, _ := runOn(t, progs, sumMemory, cfg, EngineReference)
				thr, _ := runOn(t, progs, sumMemory, cfg, EngineThreaded)
				if !reflect.DeepEqual(thr, ref) {
					t.Errorf("results diverge:\n  threaded  %+v\n  reference %+v", thr, ref)
				}
			})
		}
	}
}

// TestThreadedMaxStepsSmallerThanBlock: when the remaining step budget
// cannot fit the next block, the threaded engine hands the run over to the
// reference scheduler, so it trips the runaway guard at the same
// instruction — with the same machine-state dump — as the reference engine.
func TestThreadedMaxStepsSmallerThanBlock(t *testing.T) {
	if tp := compileThreaded(spinProg(1<<40), DefaultConfig(1).Cost); !tp.ok {
		t.Fatalf("spinProg must be eligible: %s", tp.reason)
	}
	for _, progs := range [][]*isa.Program{
		{spinProg(1 << 40)},
		{spinProg(1 << 40), sumLoop(1)},
	} {
		cfg := DefaultConfig(len(progs))
		cfg.MaxSteps = 3 // below spinProg's 6-instruction first block
		errs := map[string]string{}
		for _, engine := range Engines() {
			c := cfg
			c.Engine = engine
			m, err := New(progs, sumMemory(), c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err = m.Run(); err == nil || !strings.Contains(err.Error(), "exceeded MaxSteps=3") {
				t.Fatalf("%d cores, %s: got %v, want the MaxSteps runaway error", len(progs), engine, err)
			}
			errs[engine] = err.Error()
		}
		if errs[EngineThreaded] != errs[EngineReference] {
			t.Errorf("%d cores: errors diverge:\n  threaded  %q\n  reference %q",
				len(progs), errs[EngineThreaded], errs[EngineReference])
		}
	}
}

// runOn runs the same programs/memory on one engine and returns the result.
func runOn(t *testing.T, progs []*isa.Program, build func() *mem.Memory, cfg Config, engine string) (*Result, *mem.Memory) {
	t.Helper()
	mm := build()
	c := cfg
	c.Engine = engine
	m, err := New(progs, mm, c)
	if err != nil {
		t.Fatalf("%s: New: %v", engine, err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s: Run: %v", engine, err)
	}
	return res, mm
}

// TestThreadedJrDeoptMatchesReference drives the indirect-jump guard: the
// primary dispatches a non-canonical Jr target, which must hand the run
// over to the reference scheduler mid-run with bit-identical results.
func TestThreadedJrDeoptMatchesReference(t *testing.T) {
	q := QID(0, 1, ir.I64, 2)
	ci := func(dst isa.Reg, v int64) isa.Instr {
		return isa.Instr{Op: isa.ConstI, Dst: dst, A: noReg, B: noReg, ImmI: v}
	}
	enq := isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.I64, Q: q, Edge: 1}
	halt := isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg}
	primary := prog(0,
		ci(0, 5), enq, // 5 is a valid body pc but not the canonical driverLen
		ci(0, 3), enq, // canonical body
		ci(0, 0), enq, // shutdown
		halt,
	)
	secondary := prog(1,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 1}, // 0
		isa.Instr{Op: isa.Fjp, A: 0, B: noReg, Dst: noReg, Tgt: 9},                   // 1
		isa.Instr{Op: isa.Jr, A: 0, B: noReg, Dst: noReg},                            // 2
		ci(1, 41), // 3: canonical body
		isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 0}, // 4
		ci(2, 0),  // 5: non-canonical body
		ci(3, 42), // 6
		isa.Instr{Op: isa.Store, A: 2, B: 3, Dst: noReg, K: ir.I64, Arr: 0}, // 7
		isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 0},       // 8
		halt, // 9
	)
	if tp := compileThreaded(secondary, DefaultConfig(2).Cost); !tp.ok {
		t.Fatalf("secondary must be eligible (the hand-over is a runtime event): %s", tp.reason)
	}
	build := func() *mem.Memory {
		mm := mem.New()
		mm.AddI("o", []int64{0})
		return mm
	}
	cfg := cfg2()
	ref, refMem := runOn(t, []*isa.Program{primary, secondary}, build, cfg, EngineReference)
	thr, thrMem := runOn(t, []*isa.Program{primary, secondary}, build, cfg, EngineThreaded)
	if got := thrMem.SnapshotI("o")[0]; got != 42 {
		t.Errorf("o[0] = %d, want 42 (non-canonical body must run)", got)
	}
	if want := refMem.SnapshotI("o")[0]; thrMem.SnapshotI("o")[0] != want {
		t.Errorf("memory diverges: threaded %d, reference %d", thrMem.SnapshotI("o")[0], want)
	}
	if thr.Cycles != ref.Cycles {
		t.Errorf("cycles diverge after the hand-over: threaded %d, reference %d", thr.Cycles, ref.Cycles)
	}
	for i := range ref.PerCoreCycles {
		if thr.PerCoreCycles[i] != ref.PerCoreCycles[i] {
			t.Errorf("core %d cycles diverge: threaded %d, reference %d", i, thr.PerCoreCycles[i], ref.PerCoreCycles[i])
		}
	}
}

// TestThreadedDeqKindDeoptMatchesReference: the producer enqueues a float
// onto an integer queue, which the consumer dequeues as an int. The
// translation pass refuses the producer's class mismatch, so the threaded
// engine runs the machine on the reference scheduler and keeps the
// dynamically-kinded float the reference delivers.
func TestThreadedDeqKindDeoptMatchesReference(t *testing.T) {
	q := QID(1, 0, ir.I64, 2)
	halt := isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg}
	consumer := prog(0,
		isa.Instr{Op: isa.Deq, Dst: 0, A: noReg, B: noReg, K: ir.I64, Q: q, Edge: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 1, A: 0, B: 0},
		halt,
	)
	consumer.RegName = map[isa.Reg]string{1: "out"}
	producer := prog(1,
		isa.Instr{Op: isa.ConstF, Dst: 0, A: noReg, B: noReg, ImmF: 2.5},
		isa.Instr{Op: isa.Enq, A: 0, B: noReg, Dst: noReg, K: ir.F64, Q: q, Edge: 1},
		halt,
	)
	if tp := compileThreaded(consumer, DefaultConfig(2).Cost); !tp.ok {
		t.Fatalf("consumer must be eligible: %s", tp.reason)
	}
	if tp := compileThreaded(producer, DefaultConfig(2).Cost); tp.ok || !strings.Contains(tp.reason, "class") {
		t.Fatalf("producer must be refused for its queue class, got ok=%v reason %q", tp.ok, tp.reason)
	}
	cfg := cfg2()
	ref, _ := runOn(t, []*isa.Program{consumer, producer}, mem.New, cfg, EngineReference)
	thr, _ := runOn(t, []*isa.Program{consumer, producer}, mem.New, cfg, EngineThreaded)
	if thr.Cycles != ref.Cycles {
		t.Errorf("cycles diverge: threaded %d, reference %d", thr.Cycles, ref.Cycles)
	}
	got, ok := thr.LiveOut["out"]
	want := ref.LiveOut["out"]
	if !ok || got != want {
		t.Errorf("live-out diverges: threaded %+v (ok=%v), reference %+v", got, ok, want)
	}
	if want.K != ir.F64 || want.F != 5.0 {
		t.Errorf("reference live-out = %+v, want the dynamically-kinded float 5", want)
	}
}

// TestThreadedTranslationCache pins translation ownership: a program
// keeps one translation per cost table, a structurally equal but distinct
// program builds its own, and a different cost table builds another.
func TestThreadedTranslationCache(t *testing.T) {
	mk := func() *isa.Program {
		return prog(0,
			isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 7},
			isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
		)
	}
	ct := DefaultConfig(1).Cost
	p := mk()
	tp1 := threadedFor(p, ct)
	if !tp1.ok {
		t.Fatalf("ineligible: %s", tp1.reason)
	}
	if tp2 := threadedFor(p, ct); tp2 != tp1 {
		t.Error("same program + same cost table must return the program's translation")
	}
	if tp3 := threadedFor(mk(), ct); tp3 == tp1 {
		t.Error("a distinct program must own its own translation")
	}
	ct2 := ct
	ct2.IntALU += 1
	tp4 := threadedFor(p, ct2)
	if tp4 == tp1 {
		t.Error("different cost table must not share a translation")
	}
	if threadedFor(p, ct) != tp1 || threadedFor(p, ct2) != tp4 {
		t.Error("a program must keep the translation of every table it met")
	}
}

// TestThreadedTranslationBound runs one program set under more distinct
// cost tables than a program keeps translations for: each program holds at
// most maxTranslations, and every run still equals the reference engine's.
func TestThreadedTranslationBound(t *testing.T) {
	progs := []*isa.Program{sumLoop(0), sumLoop(1)}
	for round := range 2 {
		for i := range maxTranslations + 3 {
			cfg := DefaultConfig(2)
			cfg.Cost.L1Miss += int64(i)
			ref, _ := runOn(t, progs, sumMemory, cfg, EngineReference)
			thr, _ := runOn(t, progs, sumMemory, cfg, EngineThreaded)
			if !reflect.DeepEqual(thr, ref) {
				t.Fatalf("round %d, table %d: results diverge:\n  threaded  %+v\n  reference %+v", round, i, thr, ref)
			}
		}
	}
	for i, p := range progs {
		if n := len(p.Engine().Load().(*tset).entries); n > maxTranslations {
			t.Errorf("program %d keeps %d translations, bound is %d", i, n, maxTranslations)
		}
	}
}

// TestThreadedConcurrentFirstUse simulates one fresh program set from many
// goroutines at once, so the first uses race to build and publish the
// translations (run it under -race). Every run must give the same result.
func TestThreadedConcurrentFirstUse(t *testing.T) {
	progs := []*isa.Program{sumLoop(0), sumLoop(1)}
	cfg := DefaultConfig(2)
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(progs, sumMemory(), cfg)
			if err == nil {
				results[g], err = m.Run()
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g := range n {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Errorf("goroutine %d: result %+v, goroutine 0: %+v", g, results[g], results[0])
		}
	}
	for i, p := range progs {
		if threadedFor(p, cfg.Cost) != threadedFor(p, cfg.Cost) {
			t.Errorf("program %d: no single translation kept after the race", i)
		}
	}
}

// TestThreadedTranslationCollected drops a simulated program and requires
// the garbage collector to reclaim it and its translation: nothing outside
// the program may keep either alive. (Finalizers rather than
// runtime.AddCleanup, which is newer than go.mod's go line.)
func TestThreadedTranslationCollected(t *testing.T) {
	progDone, tpDone := make(chan struct{}), make(chan struct{})
	func() {
		p := sumLoop(0)
		m, err := New([]*isa.Program{p}, sumMemory(), DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		tp := threadedFor(p, DefaultConfig(1).Cost)
		if !tp.ok {
			t.Fatalf("sumLoop must be eligible: %s", tp.reason)
		}
		runtime.SetFinalizer(p, func(*isa.Program) { close(progDone) })
		runtime.SetFinalizer(tp, func(*tprog) { close(tpDone) })
	}()
	for _, c := range []struct {
		what string
		done chan struct{}
	}{{"program", progDone}, {"translation", tpDone}} {
		collected := false
		for range 50 {
			runtime.GC()
			select {
			case <-c.done:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
			if collected {
				break
			}
		}
		if !collected {
			t.Errorf("the dropped %s was never collected", c.what)
		}
	}
}
