package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fgp/internal/core"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

// corpus returns the loops the baseline and profile tests run: the 18
// tier-1 kernels, the 6 tier-2 kernels and 200 generated loops.
func corpus(t *testing.T) []*kernels.Kernel {
	t.Helper()
	ks := kernels.All()
	t2, err := tier2.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range t2 {
		l, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, kernels.Wrap(k.Name, func() *ir.Loop { return l }))
	}
	for seed := range uint64(200) {
		l := fuzz.Generate(seed, fuzz.GenConfig{MaxStmts: 24, MaxDepth: 4})
		ks = append(ks, kernels.Wrap(l.Name, func() *ir.Loop { return l }))
	}
	return ks
}

// TestSeqCyclesIsTheSequentialCompile: the baseline the Runner reads from
// its profiling run equals what the library's sequential compile simulates
// to, on the machines the evaluation and machspace sweep.
func TestSeqCyclesIsTheSequentialCompile(t *testing.T) {
	machines := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"l1lines16", func(c *sim.Config) { c.Cache.Lines = 16 }},
		{"l1miss2x", func(c *sim.Config) { c.Cost.L1Miss *= 2 }},
		{"memport0", func(c *sim.Config) { c.MemPortCycles = 0 }},
	}
	ks := corpus(t)
	r := NewRunner()
	err := ParallelEach(len(ks), 0, func(i int) error {
		k := ks[i]
		a, err := core.CompileSequential(k.Build())
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		for _, m := range machines {
			mc := sim.DefaultConfig(1)
			m.mod(&mc)
			got, _, err := r.SeqCyclesContext(context.Background(), k, mc)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, m.name, err)
			}
			want, err := a.Run(mc)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, m.name, err)
			}
			if got != want.Cycles {
				t.Errorf("%s/%s: SeqCyclesContext %d, CompileSequential runs %d cycles", k.Name, m.name, got, want.Cycles)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProfileIgnoresQueueLevers: the profiling run executes no queue
// operation, so a profile resolved at any queue length or enq/deq cost is
// the one a fresh measurement on that machine returns, and each loop
// fills one profile entry for all of them.
func TestProfileIgnoresQueueLevers(t *testing.T) {
	levers := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"queue2", func(c *sim.Config) { c.QueueLen = 2 }},
		{"queue4", func(c *sim.Config) { c.QueueLen = 4 }},
		{"queue8", func(c *sim.Config) { c.QueueLen = 8 }},
		{"queue64", func(c *sim.Config) { c.QueueLen = 64 }},
		{"enqdeq3", func(c *sim.Config) { c.Cost.Enq, c.Cost.Deq = 3, 3 }},
	}
	ctx := context.Background()
	ks := corpus(t)
	r := NewRunner()
	err := ParallelEach(len(ks), 0, func(i int) error {
		k := ks[i]
		rec := obs.NewRecorder()
		mc := sim.DefaultConfig(1)
		mc.Sink = rec
		opt := core.DefaultOptions(1)
		opt.Machine = &mc
		if _, _, err := core.ComputeProfile(ctx, k.Build(), opt); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		for _, e := range rec.Events {
			if e.Kind == obs.KEnq || e.Kind == obs.KDeq {
				t.Errorf("%s: the profiling run executed a queue operation: %+v", k.Name, e)
				break
			}
		}
		for _, l := range levers {
			mc := sim.DefaultConfig(2)
			l.mod(&mc)
			opt := core.DefaultOptions(2)
			opt.Machine = &mc
			got, err := r.profile(ctx, k, core.CanonicalOptions(opt))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, l.name, err)
			}
			prof, cycles, err := core.ComputeProfile(ctx, k.Build(), opt)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, l.name, err)
			}
			if want := (profiled{prof, cycles}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: resolved profile differs from a fresh one on the machine:\n got  %+v\n want %+v", k.Name, l.name, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := r.profiles.Stats(); s.Fills != int64(len(ks)) {
		t.Errorf("profiles %+v, want one fill per loop (%d)", s, len(ks))
	}
}

// TestDegenerateQueueLeverRefusedBeforeProfiling: the profile address
// ignores the queue levers, so the Runner validates the full machine
// first. An unusable queue is refused with its *sim.ConfigError, for an
// artifact and for a baseline, and nothing is profiled.
func TestDegenerateQueueLeverRefusedBeforeProfiling(t *testing.T) {
	cases := []struct {
		field string
		mod   func(*sim.Config)
	}{
		{"QueueLen", func(c *sim.Config) { c.QueueLen = 0 }},
		{"Cost.Enq", func(c *sim.Config) { c.Cost.Enq = -1 }},
		{"Cost.Deq", func(c *sim.Config) { c.Cost.Deq = -1 }},
	}
	ctx := context.Background()
	r := NewRunner()
	k := kernels.All()[0]
	for _, c := range cases {
		mc := sim.DefaultConfig(2)
		c.mod(&mc)
		opt := core.DefaultOptions(2)
		opt.Machine = &mc
		_, _, _, err := r.ArtifactContext(ctx, k, opt)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("artifact with a bad %s: %v, want a *sim.ConfigError on it", c.field, err)
		}
		smc := sim.DefaultConfig(1)
		c.mod(&smc)
		_, _, err = r.SeqCyclesContext(ctx, k, smc)
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("baseline with a bad %s: %v, want a *sim.ConfigError on it", c.field, err)
		}
	}
	if s := r.profiles.Stats(); s.Fills != 0 || s.Misses != 0 {
		t.Errorf("profiles %+v after refused machines, want none", s)
	}
}

// TestEvaluationProfileCounts pins the shared profiling run's effect on
// one evaluation at any worker count. Its 216 artifact and baseline fills
// look up 54 distinct profiles: every baseline reads the profile of the
// loop's unspeculated, unnormalized variants, and the queue-length sweep
// shares the paper machine's.
func TestEvaluationProfileCounts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := NewRunner()
		r.SetWorkers(workers)
		if err := evaluate(r); err != nil {
			t.Fatal(err)
		}
		if s := r.profiles.Stats(); s.Fills != 54 || s.Misses != 54 || s.Hits != 162 || s.Entries != 54 {
			t.Errorf("%d workers: profiles %+v, want 54 fills, misses and entries and 162 hits", workers, s)
		}
		if s := r.cache.Stats(); s.Misses != 216 || s.Hits != 720 {
			t.Errorf("%d workers: artifact cache %+v, want 216 misses and 720 hits", workers, s)
		}
	}
}
