// Cancellation conformance for both engines: a context cancelled before or
// during a run must abort it promptly (within one cancellation stride),
// return the bare context error, leak no goroutines, and leave results of
// uncancelled runs bit-identical to Run().

package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
)

// spinProg builds a single-core program that counts to bound and halts:
// each iteration is add, compare, conditional-jump, jump. With a large
// bound it runs for hundreds of millions of steps — effectively forever on
// test timescales — without tripping MaxSteps.
func spinProg(bound int64) *isa.Program {
	return prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, A: noReg, B: noReg, ImmI: 0},
		isa.Instr{Op: isa.ConstI, Dst: 1, A: noReg, B: noReg, ImmI: 1},
		isa.Instr{Op: isa.ConstI, Dst: 2, A: noReg, B: noReg, ImmI: bound},
		isa.Instr{Op: isa.Bin, BinOp: ir.Add, K: ir.I64, Dst: 0, A: 0, B: 1},
		isa.Instr{Op: isa.Bin, BinOp: ir.Lt, K: ir.I64, Dst: 3, A: 0, B: 2},
		isa.Instr{Op: isa.Fjp, Dst: noReg, A: 3, B: noReg, Tgt: 7},
		isa.Instr{Op: isa.Jp, Dst: noReg, A: noReg, B: noReg, Tgt: 3},
		isa.Instr{Op: isa.Halt, Dst: noReg, A: noReg, B: noReg},
	)
}

// engineConfigs returns the single-core test machine once per engine.
func engineConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, e := range Engines() {
		c := cfg1()
		c.Engine = e
		cfgs[e] = c
	}
	return cfgs
}

func TestRunContextPreCancelled(t *testing.T) {
	for name, cfg := range engineConfigs() {
		t.Run(name, func(t *testing.T) {
			m, err := New([]*isa.Program{spinProg(1 << 40)}, mem.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := m.RunContext(ctx)
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run returned (%v, %v), want (nil, context.Canceled)", res, err)
			}
		})
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	for name, cfg := range engineConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			// ~1<<40 iterations: would take hours to finish; only a prompt
			// abort lets this test pass within its watchdog.
			m, err := New([]*isa.Program{spinProg(1 << 40)}, mem.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := m.RunContext(ctx)
				done <- outcome{res, err}
			}()
			time.Sleep(20 * time.Millisecond)
			cancelled := time.Now()
			cancel()
			select {
			case o := <-done:
				if elapsed := time.Since(cancelled); elapsed > 5*time.Second {
					t.Errorf("abort took %v after cancel; the engine is not honoring its stride", elapsed)
				}
				if o.res != nil || !errors.Is(o.err, context.Canceled) {
					t.Fatalf("cancelled run returned (%v, %v), want (nil, context.Canceled)", o.res, o.err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("run did not return within 60s of cancellation")
			}
			// Goroutine accounting: the runner goroutine above must be the
			// only one we created, and it has already exited.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("goroutines grew from %d to %d across a cancelled run", before, now)
			}
		})
	}
}

func TestRunContextDeadline(t *testing.T) {
	for name, cfg := range engineConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			m, err := New([]*isa.Program{spinProg(1 << 40)}, mem.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			res, err := m.RunContext(ctx)
			if res != nil || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline run returned (%v, %v), want (nil, context.DeadlineExceeded)", res, err)
			}
		})
	}
}

// TestRunContextBackgroundMatchesRun: threading a never-cancelled context
// through must not perturb results — same cycles, instruction counts and
// halt state as the context-free entry point, on both engines.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	const bound = 200_000 // large enough to cross many cancellation strides
	for name, cfg := range engineConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			m1, err := New([]*isa.Program{spinProg(bound)}, mem.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := m1.Run()
			if err != nil {
				t.Fatal(err)
			}
			m2, err := New([]*isa.Program{spinProg(bound)}, mem.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			withCtx, err := m2.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Cycles != withCtx.Cycles {
				t.Errorf("cycles drifted under a live context: %d vs %d", plain.Cycles, withCtx.Cycles)
			}
			if plain.PerCoreInstrs[0] != withCtx.PerCoreInstrs[0] {
				t.Errorf("instruction counts drifted: %d vs %d", plain.PerCoreInstrs[0], withCtx.PerCoreInstrs[0])
			}
		})
	}
}
