package sim_test

import (
	"errors"
	"strings"
	"testing"

	"fgp/internal/sim"
)

func TestValidateAcceptsDegenerateButRealMachines(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"paper default", func(c *sim.Config) {}},
		{"one-slot queue", func(c *sim.Config) { c.QueueLen = 1 }},
		{"zero transfer latency", func(c *sim.Config) { c.TransferLatency = 0 }},
		{"free enqueue/dequeue", func(c *sim.Config) { c.Cost.Enq = 0; c.Cost.Deq = 0 }},
		{"disabled L1", func(c *sim.Config) { c.Cache.Lines = 0 }},
		{"one-line L1", func(c *sim.Config) { c.Cache.Lines = 1 }},
		{"single core", func(c *sim.Config) { c.Cores = 1 }},
		{"largest machine", func(c *sim.Config) { c.Cores = sim.MaxCores; c.QueueLen = sim.MaxQueueLen }},
	}
	for _, m := range mods {
		c := sim.DefaultConfig(4)
		m.mod(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", m.name, err)
		}
	}
}

func TestValidateRejectsUnusableMachines(t *testing.T) {
	cases := []struct {
		field string
		mod   func(*sim.Config)
	}{
		{"Cores", func(c *sim.Config) { c.Cores = 0 }},
		// Past 181 cores a queue id no longer fits 16 bits.
		{"Cores", func(c *sim.Config) { c.Cores = 182 }},
		{"QueueLen", func(c *sim.Config) { c.QueueLen = 0 }},
		{"QueueLen", func(c *sim.Config) { c.QueueLen = -3 }},
		{"QueueLen", func(c *sim.Config) { c.QueueLen = 4097 }},
		{"TransferLatency", func(c *sim.Config) { c.TransferLatency = -1 }},
		{"GroupSize", func(c *sim.Config) { c.GroupSize = -1 }},
		{"MemPortCycles", func(c *sim.Config) { c.MemPortCycles = -1 }},
		{"MaxSteps", func(c *sim.Config) { c.MaxSteps = -1 }},
		{"Cost.Enq", func(c *sim.Config) { c.Cost.Enq = -1 }},
		{"Cost.L1Miss", func(c *sim.Config) { c.Cost.L1Miss = -2 }},
		{"Cache.Lines", func(c *sim.Config) { c.Cache.Lines = -1 }},
		// A 4-byte line cannot hold one 8-byte element; a 48-byte line is
		// not a power of two. Both only matter with a real cache.
		{"Cache.LineSize", func(c *sim.Config) { c.Cache.Lines = 8; c.Cache.LineSize = 4 }},
		{"Cache.LineSize", func(c *sim.Config) { c.Cache.Lines = 8; c.Cache.LineSize = 48 }},
		{"Engine", func(c *sim.Config) { c.Engine = "warp-drive" }},
	}
	for _, tc := range cases {
		c := sim.DefaultConfig(4)
		tc.mod(&c)
		err := c.Validate()
		var ce *sim.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want *ConfigError, got %v", tc.field, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("rejected field %q, want %q (%v)", ce.Field, tc.field, err)
		}
		if !errors.Is(err, sim.ErrBadConfig) {
			t.Errorf("%s: error does not wrap ErrBadConfig", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: message %q does not name the field", tc.field, err)
		}
	}
}

// TestNewRejectsInvalidConfig pins that the gate is wired into machine
// construction: an unusable configuration is a structured error, never a
// panic or a deadlocked machine.
func TestNewRejectsInvalidConfig(t *testing.T) {
	c := sim.DefaultConfig(1)
	c.QueueLen = 0
	if _, err := sim.New(nil, nil, c); !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("New with zero queue capacity: %v, want ErrBadConfig", err)
	}
	c = sim.DefaultConfig(1)
	c.Engine = "nope"
	if _, err := sim.New(nil, nil, c); !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("New with unknown engine: %v, want ErrBadConfig", err)
	}
}
