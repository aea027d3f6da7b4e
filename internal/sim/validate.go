// Machine-configuration validation. The machine-space sweep (see
// internal/machspace) dials every hardware knob — queue capacity, transfer
// latency, enqueue/dequeue issue cost, L1 geometry and latencies — through
// literal zero and other degenerate corners, so the configuration surface
// needs one authoritative gate: a point either simulates correctly
// (bit-identical across both engines, like any other configuration) or
// is rejected here with a structured diagnostic before any compile or
// simulation work starts. It must never reach a deadlock or a panic. The
// gate also bounds what a machine may cost to build: the simulator
// allocates Cores²×2 queues of QueueLen slots each.

package sim

import (
	"errors"
	"fmt"
)

// ErrBadConfig is wrapped by every configuration-validation failure, so
// callers can classify rejection-vs-infrastructure with errors.Is.
var ErrBadConfig = errors.New("sim: invalid machine configuration")

// The machine envelope Validate enforces. MaxCores is the largest machine
// whose every queue id (Cores²×2 of them) fits the threaded translator's
// 16-bit queue field; New allocates about 7 MB of queues for it. fgpd and
// the machine-space sweep bound queue capacity by MaxQueueLen too.
const (
	MaxCores    = 181
	MaxQueueLen = 1 << 12
)

// ConfigError is one structured validation diagnostic: the Config field at
// fault and why its value is unusable. It wraps ErrBadConfig.
type ConfigError struct {
	Field  string // Config field (or Cost./Cache. subfield) at fault
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid machine configuration: %s: %s", e.Field, e.Reason)
}

func (e *ConfigError) Unwrap() error { return ErrBadConfig }

// Validate checks that the configuration describes a machine the simulator
// can model, returning a *ConfigError naming the offending field otherwise.
// The legal envelope is deliberately wider than the paper's operating point:
// zero-cycle transfer latency, zero-cost enqueue/dequeue issue, a
// single-slot queue, and a disabled L1 (Cache.Lines == 0, every access
// hits) are all valid machines — the sensitivity sweeps request them
// literally — and are covered by the cross-engine degenerate-point tests.
// Its upper end is MaxCores cores and MaxQueueLen slots per queue.
func (c *Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return &ConfigError{Field: "Cores", Reason: fmt.Sprintf("must be in [1, %d], got %d", MaxCores, c.Cores)}
	}
	if c.QueueLen < 1 || c.QueueLen > MaxQueueLen {
		return &ConfigError{Field: "QueueLen", Reason: fmt.Sprintf("queue capacity must be in [1, %d], got %d", MaxQueueLen, c.QueueLen)}
	}
	if c.TransferLatency < 0 {
		return &ConfigError{Field: "TransferLatency", Reason: fmt.Sprintf("must be >= 0, got %d", c.TransferLatency)}
	}
	if c.GroupSize < 0 {
		return &ConfigError{Field: "GroupSize", Reason: fmt.Sprintf("must be >= 0, got %d", c.GroupSize)}
	}
	if c.MemPortCycles < 0 {
		return &ConfigError{Field: "MemPortCycles", Reason: fmt.Sprintf("must be >= 0, got %d", c.MemPortCycles)}
	}
	if c.MaxSteps < 0 {
		return &ConfigError{Field: "MaxSteps", Reason: fmt.Sprintf("must be >= 0, got %d", c.MaxSteps)}
	}
	// Every latency-table entry must be non-negative. Zero is legal for the
	// queue issue costs (the paper's "free" enqueue corner) and harmless for
	// compute ops: the pc still advances every instruction, so a zero-cost
	// loop terminates like any other — only its cycle count stops growing —
	// and the MaxSteps runaway guard stays the backstop either way.
	for _, e := range []struct {
		name string
		v    int64
	}{
		{"Cost.IntALU", c.Cost.IntALU}, {"Cost.IntMul", c.Cost.IntMul}, {"Cost.IntDiv", c.Cost.IntDiv},
		{"Cost.FAdd", c.Cost.FAdd}, {"Cost.FMul", c.Cost.FMul}, {"Cost.FDiv", c.Cost.FDiv},
		{"Cost.FSqrt", c.Cost.FSqrt}, {"Cost.FMath", c.Cost.FMath}, {"Cost.Cvt", c.Cost.Cvt},
		{"Cost.Mov", c.Cost.Mov}, {"Cost.Const", c.Cost.Const}, {"Cost.Branch", c.Cost.Branch},
		{"Cost.Store", c.Cost.Store}, {"Cost.L1Hit", c.Cost.L1Hit}, {"Cost.L1Miss", c.Cost.L1Miss},
		{"Cost.Enq", c.Cost.Enq}, {"Cost.Deq", c.Cost.Deq},
	} {
		if e.v < 0 {
			return &ConfigError{Field: e.name, Reason: fmt.Sprintf("latency must be >= 0, got %d", e.v)}
		}
	}
	// L1 geometry. Lines == 0 disables the timing model (uniform hit
	// latency) — the "L1 smaller than one line" corner resolves there rather
	// than in a degenerate indexing mode. With a real cache the line size
	// must hold at least one 8-byte element and be a power of two, or the
	// address-to-line shift would split elements across lines.
	if c.Cache.Lines < 0 {
		return &ConfigError{Field: "Cache.Lines", Reason: fmt.Sprintf("must be >= 0 (0 disables the L1 model), got %d", c.Cache.Lines)}
	}
	if c.Cache.Lines > 0 {
		ls := c.Cache.LineSize
		if ls < 8 || ls&(ls-1) != 0 {
			return &ConfigError{Field: "Cache.LineSize",
				Reason: fmt.Sprintf("must be a power of two >= 8 bytes when Cache.Lines > 0, got %d", ls)}
		}
	}
	if err := CheckEngine(c.Engine); err != nil {
		return &ConfigError{Field: "Engine", Reason: err.Error()}
	}
	return nil
}
