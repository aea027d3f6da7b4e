// Degenerate machine points: the machine-space sweep (internal/machspace)
// dials every hardware lever through literal zero and single-unit corners.
// Each such point must either simulate correctly — verified bit-for-bit
// against the reference interpreter and bit-identical across both
// engines — or be rejected with a structured *sim.ConfigError before any
// compile work. Never a panic, never a hang.

package core

import (
	"errors"
	"testing"

	"fgp/internal/sim"
)

func TestDegeneratePointsSimulateCorrectly(t *testing.T) {
	l := fig1Loop(t, 256)
	mods := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"one-slot queue", func(c *sim.Config) { c.QueueLen = 1 }},
		{"zero transfer latency", func(c *sim.Config) { c.TransferLatency = 0 }},
		{"free enqueue/dequeue", func(c *sim.Config) { c.Cost.Enq = 0; c.Cost.Deq = 0 }},
		{"all comm free", func(c *sim.Config) {
			c.QueueLen = 1
			c.TransferLatency = 0
			c.Cost.Enq = 0
			c.Cost.Deq = 0
		}},
		{"disabled L1", func(c *sim.Config) { c.Cache.Lines = 0 }},
		{"one-line L1", func(c *sim.Config) { c.Cache.Lines = 1 }},
		{"two-line thrash L1", func(c *sim.Config) { c.Cache.Lines = 2 }},
	}
	for _, m := range mods {
		// The lever is part of the compile-time machine, exactly as the
		// sweep requests it: token priming is capped to the queue capacity
		// (depthCap), so a one-slot queue is compiled for, not tripped over.
		opt := DefaultOptions(3)
		mc := sim.DefaultConfig(3)
		m.mod(&mc)
		opt.Machine = &mc
		a, err := Compile(l, opt)
		if err != nil {
			t.Fatalf("%s: compile: %v", m.name, err)
		}
		// Correctness: final memory bit-identical to the reference
		// interpreter.
		if _, err := a.Verify(a.MachineConfig()); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		// Engine equivalence: the threaded and reference engines must agree
		// on the cycle count at this point.
		var cycles []int64
		for _, eng := range sim.Engines() {
			cfg := a.MachineConfig()
			cfg.Engine = eng
			res, err := a.Run(cfg)
			if err != nil {
				t.Fatalf("%s: engine %s: %v", m.name, eng, err)
			}
			cycles = append(cycles, res.Cycles)
		}
		for i := 1; i < len(cycles); i++ {
			if cycles[i] != cycles[0] {
				t.Errorf("%s: engines disagree: %v (order %v)", m.name, cycles, sim.Engines())
			}
		}
	}
}

func TestUnusableMachineRejectedBeforeCompile(t *testing.T) {
	l := fig1Loop(t, 64)
	cases := []struct {
		field string
		mod   func(*sim.Config)
	}{
		{"QueueLen", func(c *sim.Config) { c.QueueLen = 0 }},
		{"TransferLatency", func(c *sim.Config) { c.TransferLatency = -1 }},
		{"Cost.Deq", func(c *sim.Config) { c.Cost.Deq = -5 }},
		{"Cache.LineSize", func(c *sim.Config) { c.Cache.Lines = 8; c.Cache.LineSize = 48 }},
		{"Engine", func(c *sim.Config) { c.Engine = "warp-drive" }},
	}
	for _, tc := range cases {
		opt := DefaultOptions(2)
		mc := sim.DefaultConfig(2)
		tc.mod(&mc)
		opt.Machine = &mc
		_, err := Compile(l, opt)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want *sim.ConfigError from compile, got %v", tc.field, err)
		}
		if ce.Field != tc.field {
			t.Errorf("rejected field %q, want %q", ce.Field, tc.field)
		}
		if !errors.Is(err, sim.ErrBadConfig) {
			t.Errorf("%s: error does not wrap ErrBadConfig", tc.field)
		}
	}
}

// TestCapacityMismatchIsDiagnosedNotHung pins the one remaining corner: an
// artifact compiled for a deep queue (priming depth up to 8) simulated on
// a machine with a shallower queue than its primed depth. The simulator
// must return — a result or a structured error — never panic or hang.
func TestCapacityMismatchIsDiagnosedNotHung(t *testing.T) {
	l := fig1Loop(t, 256)
	a, err := Compile(l, DefaultOptions(3)) // default 20-slot queues
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.MachineConfig()
	cfg.QueueLen = 1
	res, err := a.Run(cfg)
	if err != nil {
		t.Logf("capacity mismatch diagnosed: %v", err)
		return
	}
	// Legal too: priming blocks until the receiver drains, and the
	// schedule happens to make progress. Then the run must still be
	// correct.
	if res.Cycles <= 0 {
		t.Fatalf("mismatched run returned %d cycles", res.Cycles)
	}
	if _, err := a.Verify(cfg); err != nil {
		t.Fatalf("mismatched run completed but is wrong: %v", err)
	}
}
