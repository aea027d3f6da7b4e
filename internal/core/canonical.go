// The address policy: which options can change a compiled artifact, and
// which machine settings can change a simulation result. Every cache of
// compiled work (internal/experiments' Runner, and through it machspace and
// fgpd) addresses an entry by the canonical options below plus the loop's
// ir.Digest, and fills the entry by compiling exactly those canonical
// options, so a cached value is a pure function of its address. A memoized
// simulation result is addressed by its artifact's address plus the
// canonical run configuration.

package core

import (
	"fgp/internal/codegraph"
	"fgp/internal/search"
	"fgp/internal/sim"
)

// CanonicalOptions returns the options a compile with opt depends on, with
// every default filled in and every field that cannot change the artifact
// zeroed. Compiling the result yields the artifact opt compiles; two
// options with equal canonical forms compile identical artifacts.
//
//   - Defaults: zero Weights are codegraph.DefaultWeights, "" is
//     PartitionerHeuristic, a nil Machine is the paper-default machine
//     (widened to Cores, as CompileContext does), and a search budget of 0
//     is search.DefaultBudget.
//   - Search-only: SearchSeed, SearchBudget and the machine's transfer
//     latency count only under PartitionerSearch. The heuristic never
//     reads the latency (the profiling run has one core and no queues);
//     a searched partition is scored on the machine it was compiled for.
//   - Never counted: SearchWorkers (host time only), Profile (measured from
//     the other fields), and the machine's Engine, Sink and DebugEdges
//     (run-time choices that leave results bit-identical) and
//     CollectProfile (the profiling run sets it itself).
//
// A consumer of an artifact compiled from canonical options applies its
// own transfer latency (and any other run-time lever) to MachineConfig at
// simulation time.
func CanonicalOptions(opt Options) Options {
	c := opt
	if (c.Weights == codegraph.Weights{}) {
		c.Weights = codegraph.DefaultWeights()
	}
	if c.Partitioner == "" {
		c.Partitioner = PartitionerHeuristic
	}
	mc := machineFor(opt)
	if c.Partitioner == PartitionerSearch {
		if c.SearchBudget <= 0 {
			c.SearchBudget = search.DefaultBudget
		}
	} else {
		c.SearchSeed, c.SearchBudget = 0, 0
		mc.TransferLatency = sim.DefaultConfig(mc.Cores).TransferLatency
	}
	c.SearchWorkers = 0
	c.Profile = nil
	mc.Engine, mc.Sink = "", nil
	mc.DebugEdges, mc.CollectProfile = false, false
	c.Machine = &mc
	return c
}

// ProfileOptions returns the canonical options of the profiling
// measurement a compile with opt feeds on: only the pre-lowering
// transformations and the machine count, and the machine has one core.
// Compilations of one variant at every core count share it. The queue
// levers (QueueLen, Cost.Enq, Cost.Deq) take the paper default, as
// CanonicalOptions does for transfer latency: the one-core profiling
// program has no enq or deq. A caller must validate the full machine
// itself, or a degenerate queue lever would profile as the default.
func ProfileOptions(opt Options) Options {
	c := CanonicalOptions(opt)
	mc := *c.Machine
	def := sim.DefaultConfig(1)
	mc.Cores = 1
	mc.QueueLen, mc.Cost.Enq, mc.Cost.Deq = def.QueueLen, def.Cost.Enq, def.Cost.Deq
	return CanonicalOptions(Options{
		Cores:        1,
		Speculate:    c.Speculate,
		NormalizeOps: c.NormalizeOps,
		UseProfile:   true,
		Machine:      &mc,
	})
}

// CanonicalRun returns the part of a simulation configuration a Result
// depends on: cfg with Engine, Sink and DebugEdges zeroed. Every engine
// returns a bit-identical Result; a recorder observes a run without
// changing it (a run that attaches one wants the event stream, so it
// bypasses result memos); and DebugEdges only adds a check.
func CanonicalRun(cfg sim.Config) sim.Config {
	cfg.Engine, cfg.Sink, cfg.DebugEdges = "", nil, false
	return cfg
}
