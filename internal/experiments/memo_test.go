package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fgp/internal/core"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// TestSimulateHitEqualsFreshRun: a memoized result is exactly what a fresh
// simulation returns, on either engine, across the run levers the
// evaluation and machspace vary.
func TestSimulateHitEqualsFreshRun(t *testing.T) {
	levers := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"latency0", func(c *sim.Config) { c.TransferLatency = 0 }},
		{"latency20", func(c *sim.Config) { c.TransferLatency = 20 }},
		{"latency100", func(c *sim.Config) { c.TransferLatency = 100 }},
		{"enq3", func(c *sim.Config) { c.Cost.Enq = 3 }},
		{"l1lines16", func(c *sim.Config) { c.Cache.Lines = 16 }},
	}
	r := NewRunner()
	ks := kernels.All()
	err := ParallelEach(len(ks)*2, 0, func(i int) error {
		k, cores := ks[i/2], 2+2*(i%2)
		a, addr, _, err := r.ArtifactContext(context.Background(), k, core.DefaultOptions(cores))
		if err != nil {
			return err
		}
		for _, l := range levers {
			cfg := a.MachineConfig()
			l.mod(&cfg)
			if _, hit, err := r.Simulate(context.Background(), a, addr, cfg); err != nil || hit {
				t.Errorf("%s/%dc/%s: first run hit=%v err=%v, want a miss", k.Name, cores, l.name, hit, err)
				continue
			}
			for _, engine := range sim.Engines() {
				c := cfg
				c.Engine = engine
				memo, hit, err := r.Simulate(context.Background(), a, addr, c)
				if err != nil || !hit {
					t.Errorf("%s/%dc/%s/%s: hit=%v err=%v, want a hit", k.Name, cores, l.name, engine, hit, err)
					continue
				}
				fresh, err := a.Run(c)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(memo, fresh) {
					t.Errorf("%s/%dc/%s/%s: memo hit differs from a fresh run:\n memo  %+v\n fresh %+v",
						k.Name, cores, l.name, engine, memo, fresh)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSimulateUnknownEngineIsNotCached: the engine is not part of a
// result's address, so a request naming an unknown engine fails without
// leaving its error behind for requests that name a real one.
func TestSimulateUnknownEngineIsNotCached(t *testing.T) {
	r := NewRunner()
	a, addr, _, err := r.ArtifactContext(context.Background(), kernels.All()[0], core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.MachineConfig()
	cfg.Engine = "burst"
	if _, _, err := r.Simulate(context.Background(), a, addr, cfg); !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("unknown engine: %v, want a configuration error", err)
	}
	cfg.Engine = ""
	if _, _, err := r.Simulate(context.Background(), a, addr, cfg); err != nil {
		t.Fatalf("default engine after an unknown one: %v", err)
	}
}

// evaluate runs the paper's evaluation as the repository benchmark's
// eval-cold workload does.
func evaluate(r *Runner) error {
	steps := []func() error{
		func() error { _, err := Table2(r); return err },
		func() error { _, err := Table3(r); return err },
		func() error { _, err := Fig12(r); return err },
		func() error { _, err := Fig13(r, []int64{5, 20, 50, 100}); return err },
		func() error { _, err := Fig14(r); return err },
		func() error { _, err := Throughput(r); return err },
		func() error { _, err := MultiPair(r); return err },
		func() error { _, err := Schedule(r); return err },
		func() error { _, err := Normalize(r); return err },
		func() error { _, err := QueueLen(r, []int{2, 4, 8, 20, 64}); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// TestEvaluationResultCounts pins the memo's effect on one evaluation: of
// the 431 simulations it requests, 251 are distinct (artifact, machine)
// pairs and 180 repeat one, at any worker count.
func TestEvaluationResultCounts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := NewRunner()
		r.SetWorkers(workers)
		if err := evaluate(r); err != nil {
			t.Fatal(err)
		}
		if s := r.results.Stats(); s.Fills != 251 || s.Misses != 251 || s.Hits != 180 || s.Entries != 251 {
			t.Errorf("%d workers: result memo %+v, want 251 fills, misses and entries and 180 hits", workers, s)
		}
	}
}

// longKernel is a loop whose simulation runs for a good fraction of a
// second.
func longKernel() *kernels.Kernel { return loopKernel("long", 1_000_000) }

// loopKernel is a small streaming loop of the given trip count.
func loopKernel(name string, trips int64) *kernels.Kernel {
	b := ir.NewBuilder(name, "i", 0, trips, 1)
	b.ArrayF("a", []float64{1, 2, 3, 4})
	b.ArrayF("o", make([]float64, 4))
	idx := b.Def("j", ir.RemE(b.Idx(), ir.I(4)))
	x := b.Def("x", ir.MulE(ir.LDF("a", idx), ir.F(1.5)))
	b.Def("y", ir.AddE(ir.SqrtE(ir.AbsE(x)), ir.F(1)))
	b.StoreF("o", idx, b.T("y"))
	l := b.MustBuild()
	return kernels.Wrap(l.Name, func() *ir.Loop { return l })
}

// TestSimulateCancellation: a simulation fill runs under its requester's
// context. A miss whose requester gives up aborts within one cancellation
// stride and leaves no entry; a concurrent requester whose own context is
// live still gets the result.
func TestSimulateCancellation(t *testing.T) {
	r := NewRunner()
	k := longKernel()
	a, addr, _, err := r.ArtifactContext(context.Background(), k, core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.MachineConfig()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := r.Simulate(ctx, a, addr, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled miss returned %v, want deadline exceeded", err)
	}
	aborted := time.Since(start)
	if s := r.results.Stats(); s.Entries != 0 || s.Fills != 0 {
		t.Errorf("aborted fill left %d entries, %d fills; want none", s.Entries, s.Fills)
	}

	// One requester starts the fill and leaves; a patient one waits on it.
	ctx, cancel = context.WithCancel(context.Background())
	owner := make(chan error, 1)
	go func() {
		_, _, err := r.Simulate(ctx, a, addr, cfg)
		owner <- err
	}()
	for r.results.Stats().Entries == 0 {
		time.Sleep(time.Millisecond)
	}
	waiter := make(chan *sim.Result, 1)
	go func() {
		res, _, err := r.Simulate(context.Background(), a, addr, cfg)
		if err != nil {
			t.Errorf("live waiter inherited the cancellation: %v", err)
		}
		waiter <- res
	}()
	// Give the waiter time to block on the entry. Should it arrive after
	// the eviction instead, it fills afresh, and the checks below hold
	// either way.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	got := <-waiter
	full := time.Since(start)
	want, err := a.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("waiter's result differs from a fresh run:\n got  %+v\n want %+v", got, want)
	}
	if aborted > full/4 {
		t.Errorf("cancelled miss took %v to abort; a whole simulation took about %v", aborted, full-aborted)
	}
}

// TestResultMemoIsBounded: the memo holds at most maxResults results, so a
// client that varies a run lever on every request cannot grow it without
// bound. One full evaluation fits with room to spare.
func TestResultMemoIsBounded(t *testing.T) {
	r := NewRunner()
	a, addr, _, err := r.ArtifactContext(context.Background(), loopKernel("tiny", 8), core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	const extra = 100
	for lat := range int64(maxResults + extra) {
		cfg := a.MachineConfig()
		cfg.TransferLatency = lat
		if _, _, err := r.Simulate(context.Background(), a, addr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.results.Stats(); s.Entries > maxResults || s.Evicted < extra || s.Entries+s.Evicted != maxResults+extra {
		t.Errorf("result memo %+v, want at most %d entries and the rest evicted", s, maxResults)
	}
}

// TestFrontCacheIsBounded: each loop's profile and compile share one
// front, and a stream of distinct loops leaves at most maxFronts of them.
func TestFrontCacheIsBounded(t *testing.T) {
	r := NewRunner()
	const loops = 100
	for i := range loops {
		k := loopKernel(fmt.Sprintf("loop%d", i), int64(8+i))
		if _, _, _, err := r.ArtifactContext(context.Background(), k, core.DefaultOptions(2)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.FrontStats()
	if s.Misses != loops || s.Hits != loops {
		t.Errorf("front cache %+v, want %d misses (one per loop) and %d hits (its compile)", s, loops, loops)
	}
	if s.Entries > maxFronts || s.Entries+s.Evicted != loops {
		t.Errorf("front cache %+v, want at most %d entries and the rest evicted", s, maxFronts)
	}
}
