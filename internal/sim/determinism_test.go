package sim_test

// Determinism tests: the threaded engine must be a pure host-speed
// optimization. For every kernel of the paper's evaluation, at 2 and 4
// cores, with and without control-flow speculation, the full simulation
// Result — cycles, per-core cycles and instruction counts, enqueue and
// dequeue stalls, queue statistics, cache statistics, and live-out values —
// must be bit-identical between the default threaded engine and the
// retained per-instruction reference scheduler. Any divergence is a
// correctness bug in the threaded engine, not a tolerable approximation.
//
// The TestBurst* names date from when the default engine was the burst
// engine, since deleted; the tests now hold the threaded default to the
// reference.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

// runEngines compiles nothing: it simulates an existing artifact once per
// engine and returns both results.
func runEngines(t *testing.T, a *core.Artifact, cfg sim.Config) (threaded, ref *sim.Result) {
	t.Helper()
	cfg.Engine = sim.EngineThreaded
	threaded, err := a.Run(cfg)
	if err != nil {
		t.Fatalf("threaded run: %v", err)
	}
	cfg.Engine = sim.EngineReference
	ref, err = a.Run(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return threaded, ref
}

// diffResults compares every observable field of two results.
func diffResults(t *testing.T, label string, got, ref *sim.Result) {
	t.Helper()
	type cmp struct {
		name      string
		got, want any
	}
	checks := []cmp{
		{"Cycles", got.Cycles, ref.Cycles},
		{"PerCoreCycles", got.PerCoreCycles, ref.PerCoreCycles},
		{"PerCoreInstrs", got.PerCoreInstrs, ref.PerCoreInstrs},
		{"EnqStalls", got.EnqStalls, ref.EnqStalls},
		{"DeqStalls", got.DeqStalls, ref.DeqStalls},
		{"QueuesUsed", got.QueuesUsed, ref.QueuesUsed},
		{"PairsUsed", got.PairsUsed, ref.PairsUsed},
		{"Transfers", got.Transfers, ref.Transfers},
		{"LoadHits", got.LoadHits, ref.LoadHits},
		{"LoadMisses", got.LoadMisses, ref.LoadMisses},
		{"LiveOut", got.LiveOut, ref.LiveOut},
		{"MemPortBusyCycles", got.MemPortBusyCycles, ref.MemPortBusyCycles},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s diverges: got %v, reference %v", label, c.name, c.got, c.want)
		}
	}
}

// TestBurstMatchesReferenceAllKernels is the tentpole guarantee: for all 18
// kernels × {2, 4} cores × {speculation off, on}, default-engine results
// are identical to the reference per-instruction scheduler.
func TestBurstMatchesReferenceAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			for _, spec := range []bool{false, true} {
				k, cores, spec := k, cores, spec
				name := fmt.Sprintf("%s/%dcore/spec=%v", k.Name, cores, spec)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					opt := core.DefaultOptions(cores)
					opt.Speculate = spec
					a, err := core.Compile(k.Build(), opt)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					threaded, ref := runEngines(t, a, a.MachineConfig())
					diffResults(t, name, threaded, ref)
				})
			}
		}
	}
}

// TestBurstMatchesReferenceSequential covers the 1-core compilation path
// (the baseline of every speedup and the profiling runs).
func TestBurstMatchesReferenceSequential(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			a, err := core.CompileSequential(k.Build())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			threaded, ref := runEngines(t, a, a.MachineConfig())
			diffResults(t, k.Name, threaded, ref)
		})
	}
}

// TestBurstMatchesReferenceConfigSweep stresses the engine equivalence on
// the machine-parameter axes the figures sweep: transfer latency (Fig 13),
// queue length, disabled memory port, and disabled caches.
func TestBurstMatchesReferenceConfigSweep(t *testing.T) {
	k, err := kernels.ByName("irs-1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(k.Build(), core.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]func(*sim.Config){
		"latency50":  func(c *sim.Config) { c.TransferLatency = 50 },
		"latency100": func(c *sim.Config) { c.TransferLatency = 100 },
		"noport":     func(c *sim.Config) { c.MemPortCycles = 0 },
		"bigport":    func(c *sim.Config) { c.MemPortCycles = 128 },
		"nocache":    func(c *sim.Config) { c.Cache.Lines = 0 },
		"debugedges": func(c *sim.Config) { c.DebugEdges = true },
	}
	for name, mod := range mods {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := a.MachineConfig()
			mod(&cfg)
			threaded, ref := runEngines(t, a, cfg)
			diffResults(t, name, threaded, ref)
		})
	}
}

// TestEventStreamMatchesAcrossEngines asserts the tentpole observability
// guarantee: with a sink attached, the threaded and reference engines
// deliver the identical canonical event stream — every retire, queue
// operation, stall window and region boundary, bit for bit — and still
// produce identical Results.
func TestEventStreamMatchesAcrossEngines(t *testing.T) {
	for _, name := range []string{"sphot-1", "irs-1", "lammps-1", "umt2k-3"} {
		for _, cores := range []int{2, 3, 4} {
			name, cores := name, cores
			t.Run(fmt.Sprintf("%s/%dcore", name, cores), func(t *testing.T) {
				t.Parallel()
				k, err := kernels.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				a, err := core.Compile(k.Build(), core.DefaultOptions(cores))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cfg := a.MachineConfig()
				rRec := obs.NewRecorder()
				cfg.Engine = sim.EngineReference
				cfg.Sink = rRec
				ref, err := a.Run(cfg)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				rec := obs.NewRecorder()
				cfg.Engine = sim.EngineThreaded
				cfg.Sink = rec
				res, err := a.Run(cfg)
				if err != nil {
					t.Fatalf("threaded run: %v", err)
				}
				diffResults(t, name, res, ref)

				if !reflect.DeepEqual(rec.Meta, rRec.Meta) {
					t.Errorf("sink metadata diverges: threaded %+v, reference %+v", rec.Meta, rRec.Meta)
				}
				if len(rec.Events) != len(rRec.Events) {
					t.Fatalf("event counts diverge: threaded %d, reference %d", len(rec.Events), len(rRec.Events))
				}
				for i := range rec.Events {
					if rec.Events[i] != rRec.Events[i] {
						t.Fatalf("event %d diverges:\n  threaded  %+v\n  reference %+v", i, rec.Events[i], rRec.Events[i])
					}
				}
			})
		}
	}
}

// TestRetiresOnlyRecordingIsTheRetireFilter: a recording that keeps
// retires only holds exactly the retires of the full recording, in the same
// order, under the same metadata, for every tier-1 kernel at 2 and 4 cores.
// The text trace and fgprun's timeline read such a recording.
func TestRetiresOnlyRecordingIsTheRetireFilter(t *testing.T) {
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			k, cores := k, cores
			t.Run(fmt.Sprintf("%s/%dcore", k.Name, cores), func(t *testing.T) {
				t.Parallel()
				a, err := core.Compile(k.Build(), core.DefaultOptions(cores))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				full, retires := obs.NewRecorder(), &obs.Recorder{RetiresOnly: true}
				for _, rec := range []*obs.Recorder{full, retires} {
					cfg := a.MachineConfig()
					cfg.Sink = rec
					if _, err := a.Run(cfg); err != nil {
						t.Fatalf("run: %v", err)
					}
				}
				if !reflect.DeepEqual(retires.Meta, full.Meta) {
					t.Errorf("metadata differs: retires only %+v, full %+v", retires.Meta, full.Meta)
				}
				var want []obs.Event
				for _, e := range full.Events {
					if e.Kind == obs.KRetire {
						want = append(want, e)
					}
				}
				if len(want) == len(full.Events) {
					t.Fatal("the full recording holds retires only")
				}
				if !slices.Equal(retires.Events, want) {
					t.Errorf("retires-only recording (%d events) differs from the full recording's %d retires",
						len(retires.Events), len(want))
				}
			})
		}
	}
}

// TestStallAttributionSumsToAggregates asserts the metamorphic invariant
// behind the stall report: per-cause stall windows, summed per core, equal
// the simulator's aggregate EnqStalls/DeqStalls counters exactly, and the
// mem-port windows sum to MemPortBusyCycles' wait share observed per core.
func TestStallAttributionSumsToAggregates(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(k.Build(), core.DefaultOptions(3))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := a.MachineConfig()
	rec := obs.NewRecorder()
	cfg.Sink = rec
	res, err := a.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	perCore := make([][obs.NumCauses]int64, len(res.PerCoreCycles))
	for _, e := range rec.Events {
		if e.Kind == obs.KStallBegin {
			perCore[e.Core][e.Cause] += e.End - e.Time
		}
	}
	var enqTot, deqTot int64
	for i := range perCore {
		if got, want := perCore[i][obs.CauseDeqEmpty], res.DeqStalls[i]; got != want {
			t.Errorf("core %d: deq-empty stall windows sum to %d, DeqStalls says %d", i, got, want)
		}
		if got, want := perCore[i][obs.CauseEnqFull], res.EnqStalls[i]; got != want {
			t.Errorf("core %d: enq-full stall windows sum to %d, EnqStalls says %d", i, got, want)
		}
		enqTot += res.EnqStalls[i]
		deqTot += res.DeqStalls[i]
	}
	if enqTot+deqTot == 0 {
		t.Fatalf("degenerate test: sphot-1 at 3 cores has no queue stalls at all")
	}
}

// TestBurstVerifiesAgainstInterpreter runs the default engine through the
// full memory-image verification against the reference interpreter for a
// handful of kernels, closing the loop end-to-end.
func TestBurstVerifiesAgainstInterpreter(t *testing.T) {
	for _, name := range []string{"lammps-1", "irs-2", "umt2k-3", "sphot-1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Compile(k.Build(), core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Verify(a.MachineConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
