// Tests for the partition searcher. The load-bearing property (demanded by
// the experiment design) is that correctness is structural, not sampled:
// every candidate the explorer ever emits — not just the winner — compiles
// through the outline → Validate → verify.Check gate and simulates without a
// trap, across the whole kernel catalog and 100+ generated kernels. The
// negative side is pinned too: a hand-built cycle-creating merge is rejected
// by the gate with its specific diagnostic, and a tampered program is
// rejected by the static verifier with its specific check kind, so the gate
// provably has teeth.
package search_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fgp/internal/codegraph"
	"fgp/internal/deps"
	"fgp/internal/fiber"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/kernels"
	"fgp/internal/outline"
	"fgp/internal/profile"
	"fgp/internal/search"
	"fgp/internal/sim"
	"fgp/internal/tac"
	"fgp/internal/verify"
)

// pipeline carries one kernel's front-end products up to the point where
// partitions diverge, mirroring core.CompileContext exactly.
type pipeline struct {
	loop      *ir.Loop
	fn        *tac.Fn
	info      *deps.Info
	mc        sim.Config
	instr     func(*tac.Instr) int64
	seed      *codegraph.Result
	fiberCost []int64
}

func lowerKernel(t *testing.T, l *ir.Loop, cores int) *pipeline {
	t.Helper()
	fn, err := tac.Lower(l)
	if err != nil {
		t.Fatalf("%s: lower: %v", l.Name, err)
	}
	set, err := fiber.Partition(fn)
	if err != nil {
		t.Fatalf("%s: fiber: %v", l.Name, err)
	}
	info, err := deps.Analyze(fn, set)
	if err != nil {
		t.Fatalf("%s: deps: %v", l.Name, err)
	}
	mc := sim.DefaultConfig(cores)
	instr := profile.InstrCost(mc.Cost, nil)
	seed, err := codegraph.Merge(info, codegraph.Options{
		Targets: cores, Weights: codegraph.DefaultWeights(), InstrCost: instr,
	})
	if err != nil {
		t.Fatalf("%s: merge: %v", l.Name, err)
	}
	fiberCost := make([]int64, len(seed.PartOf))
	for i := range fn.Instrs {
		fiberCost[fn.Instrs[i].Fiber] += instr(fn.Instrs[i])
	}
	return &pipeline{loop: l, fn: fn, info: info, mc: mc, instr: instr, seed: seed, fiberCost: fiberCost}
}

// gate compiles one candidate through the same outline → Validate →
// verify.Check sequence core.CompileContext uses, returning the compiled
// programs or the first rejection.
func (p *pipeline) gate(cand *codegraph.Result) (*outline.Compiled, error) {
	compiled, err := outline.Generate(p.fn, p.info, cand, outline.Options{
		MachineCores: p.mc.Cores, InstrCost: p.instr, TokenDepthCap: 8,
	})
	if err != nil {
		return nil, err
	}
	for _, prog := range compiled.Programs {
		if err := prog.Validate(p.mc.Cores); err != nil {
			return nil, err
		}
	}
	if err := verify.Check(verify.Input{
		Programs: compiled.Programs, Cores: p.mc.Cores, QueueLen: p.mc.QueueLen,
		Fn: p.fn, Deps: p.info, Parts: cand,
	}); err != nil {
		return nil, err
	}
	return compiled, nil
}

// objective is the real thing: gate then threaded-engine simulation.
func (p *pipeline) objective() search.Objective {
	return func(ctx context.Context, cand *codegraph.Result) (int64, error) {
		compiled, err := p.gate(cand)
		if err != nil {
			return 0, err
		}
		cfg := p.mc
		cfg.Engine = sim.EngineThreaded
		m, err := sim.New(compiled.Programs, outline.BuildMemory(p.loop), cfg)
		if err != nil {
			return 0, err
		}
		res, err := m.RunContext(ctx)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
}

// checkCandidate asserts the structural invariants every emitted candidate
// must satisfy: a true partition (each fiber exactly once, no empty part,
// PartOf consistent), canonical ordering (parts by smallest fiber, fibers
// ascending within a part), and every colocation pair co-resident.
func checkCandidate(t *testing.T, name string, info *deps.Info, nfibers int, cand *codegraph.Result) {
	t.Helper()
	if len(cand.PartOf) != nfibers {
		t.Fatalf("%s: candidate covers %d fibers, want %d", name, len(cand.PartOf), nfibers)
	}
	seen := make([]bool, nfibers)
	prevMin := int32(-1)
	for pi, part := range cand.Parts {
		if len(part) == 0 {
			t.Fatalf("%s: empty partition %d", name, pi)
		}
		if part[0] <= prevMin {
			t.Fatalf("%s: partitions not ordered by smallest fiber: part %d starts at %d after %d",
				name, pi, part[0], prevMin)
		}
		prevMin = part[0]
		prev := int32(-1)
		for _, f := range part {
			if f <= prev {
				t.Fatalf("%s: part %d fibers not ascending: %v", name, pi, part)
			}
			prev = f
			if seen[f] {
				t.Fatalf("%s: fiber %d appears twice", name, f)
			}
			seen[f] = true
			if cand.PartOf[f] != int32(pi) {
				t.Fatalf("%s: PartOf[%d]=%d but fiber listed in part %d", name, f, cand.PartOf[f], pi)
			}
		}
	}
	for f, ok := range seen {
		if !ok {
			t.Fatalf("%s: fiber %d unassigned", name, f)
		}
	}
	for _, pair := range info.Colocate {
		if cand.PartOf[pair[0]] != cand.PartOf[pair[1]] {
			t.Fatalf("%s: colocation pair (%d,%d) split across parts %d/%d",
				name, pair[0], pair[1], cand.PartOf[pair[0]], cand.PartOf[pair[1]])
		}
	}
}

// refineChecked runs one Refine with an observer that asserts every emitted
// candidate verifies and scores, then asserts the run-level invariants.
func refineChecked(t *testing.T, name string, p *pipeline, opt search.Options) *search.Result {
	t.Helper()
	candidates := 0
	opt.Observer = func(cand *codegraph.Result, cycles int64, err error) {
		candidates++
		if err != nil {
			t.Fatalf("%s: candidate %d rejected by the gate: %v", name, candidates, err)
		}
		if cycles <= 0 {
			t.Fatalf("%s: candidate %d scored nonpositive cycles %d", name, candidates, cycles)
		}
		checkCandidate(t, name, p.info, len(p.seed.PartOf), cand)
	}
	r, err := search.Refine(context.Background(), p.info, p.seed, p.fiberCost, p.objective(), opt)
	if err != nil {
		t.Fatalf("%s: Refine: %v", name, err)
	}
	if r.Rejected != 0 {
		t.Fatalf("%s: %d candidates rejected; the move set must only emit legal partitions", name, r.Rejected)
	}
	if r.Explored != candidates {
		t.Fatalf("%s: Explored=%d but observer saw %d candidates", name, r.Explored, candidates)
	}
	if r.BestCycles > r.SeedCycles {
		t.Fatalf("%s: searched partition worse than heuristic seed: %d > %d", name, r.BestCycles, r.SeedCycles)
	}
	if r.Improved != (r.BestCycles < r.SeedCycles) {
		t.Fatalf("%s: Improved=%v inconsistent with cycles %d vs %d", name, r.Improved, r.BestCycles, r.SeedCycles)
	}
	checkCandidate(t, name+" (winner)", p.info, len(p.seed.PartOf), r.Best)
	return r
}

// TestEveryCandidateVerifies sweeps the full kernel catalog: every candidate
// the explorer emits at 2 and 4 cores passes the verify gate and simulates,
// zero rejections, and the winner is never worse than the heuristic seed.
func TestEveryCandidateVerifies(t *testing.T) {
	coreCounts := []int{2, 4}
	budget := 24
	if testing.Short() {
		coreCounts = []int{2}
		budget = 12
	}
	for _, k := range kernels.All() {
		for _, cores := range coreCounts {
			p := lowerKernel(t, k.Build(), cores)
			if len(p.seed.Parts) < 2 {
				continue // nothing to search at one effective core
			}
			refineChecked(t, k.Name, p, search.Options{Seed: 1, Budget: budget})
		}
	}
}

// TestGeneratedKernelCandidatesVerify runs the same every-candidate property
// over 100+ generator seeds — kernels with shapes no human wrote — at 3
// cores, covering odd colocation structures the catalog lacks.
func TestGeneratedKernelCandidatesVerify(t *testing.T) {
	n := 110
	if testing.Short() {
		n = 25
	}
	for seed := 0; seed < n; seed++ {
		l := fuzz.Generate(uint64(seed), fuzz.GenConfig{})
		p := lowerKernel(t, l, 3)
		if len(p.seed.Parts) < 2 {
			continue
		}
		refineChecked(t, l.Name, p, search.Options{Seed: int64(seed), Budget: 6})
	}
}

// TestIllegalMergeRejectedByGate pins the negative case the property tests
// cannot reach (the move set never produces it): a hand-built cycle-creating
// merge — sphot-2's fibers dealt round-robin across 2 cores, which places a
// dequeue ahead of its enqueue on the branchy path — must be rejected by the
// compile gate with the cross-branch cycle diagnostic, proving illegal
// partitions cannot reach the simulator, let alone the incumbent.
func TestIllegalMergeRejectedByGate(t *testing.T) {
	k, err := kernels.ByName("sphot-2")
	if err != nil {
		t.Fatal(err)
	}
	p := lowerKernel(t, k.Build(), 2)
	nf := len(p.seed.PartOf)
	bad := &codegraph.Result{PartOf: make([]int32, nf), Parts: make([][]int32, 2), Cost: make([]int64, 2)}
	for f := 0; f < nf; f++ {
		pi := int32(f % 2)
		bad.PartOf[f] = pi
		bad.Parts[pi] = append(bad.Parts[pi], int32(f))
		bad.Cost[pi] += p.fiberCost[f]
	}
	_, err = p.gate(bad)
	if err == nil {
		t.Fatal("cycle-creating merge passed the compile gate")
	}
	for _, want := range []string{"would dequeue", "before its enqueue"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("gate rejection lost its diagnostic: want substring %q in %q", want, err)
		}
	}
}

// TestTamperedProgramRejectedByVerifier pins the static verifier's share of
// the gate: swapping two same-queue enqueues in an otherwise-legal compiled
// program (the kind of ordering bug a broken partition move could induce
// downstream) must trip verify.Check with the fifo-order diagnostic.
func TestTamperedProgramRejectedByVerifier(t *testing.T) {
	k, err := kernels.ByName("lammps-1")
	if err != nil {
		t.Fatal(err)
	}
	p := lowerKernel(t, k.Build(), 2)
	compiled, err := p.gate(p.seed)
	if err != nil {
		t.Fatalf("heuristic partition rejected: %v", err)
	}
	// Find, in deterministic instruction order, the first queue that
	// receives two enqueues on core 0 and swap them.
	prog := compiled.Programs[0]
	firstEnq := map[int32]int{}
	i, j := -1, -1
	for idx, ins := range prog.Instrs {
		if ins.Op != isa.Enq {
			continue
		}
		if prev, ok := firstEnq[ins.Q]; ok {
			i, j = prev, idx
			break
		}
		firstEnq[ins.Q] = idx
	}
	if i < 0 {
		t.Fatal("no queue receives two enqueues on core 0; pick another kernel")
	}
	prog.Instrs[i], prog.Instrs[j] = prog.Instrs[j], prog.Instrs[i]
	err = verify.Check(verify.Input{
		Programs: compiled.Programs, Cores: p.mc.Cores, QueueLen: p.mc.QueueLen,
		Fn: p.fn, Deps: p.info, Parts: p.seed,
	})
	if err == nil {
		t.Fatal("verifier accepted a program with reordered same-queue enqueues")
	}
	if !verify.HasCheck(err, "fifo-order") {
		t.Fatalf("want fifo-order diagnostic, got: %v", err)
	}
	if !strings.Contains(err.Error(), "enqueue/dequeue sequences disagree") {
		t.Fatalf("fifo-order diagnostic lost its message: %v", err)
	}
}

// TestSeededDeterminism pins the reproducibility contract: same seed and
// budget give a byte-identical winner and identical statistics across
// repeated runs and across worker counts (under -race in CI). Workers may
// only change wall-clock time, never the outcome.
func TestSeededDeterminism(t *testing.T) {
	k, err := kernels.ByName("umt2k-3")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		key                string
		best, seed         int64
		explored, rejected int
		improved           bool
	}
	run := func(workers int) outcome {
		p := lowerKernel(t, k.Build(), 4)
		r := refineChecked(t, k.Name, p, search.Options{Seed: 11, Budget: 32, Workers: workers})
		return outcome{r.Best.CanonicalKey(), r.BestCycles, r.SeedCycles, r.Explored, r.Rejected, r.Improved}
	}
	want := run(1)
	if want.key == "" {
		t.Fatal("empty canonical key")
	}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d changed the outcome:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestSeedFallbackNeverWorse: even with a budget of 1 (seed evaluation only)
// the result is exactly the heuristic partition — the explorer cannot
// regress below its seed no matter how starved it is.
func TestSeedFallbackNeverWorse(t *testing.T) {
	k, err := kernels.ByName("lammps-2")
	if err != nil {
		t.Fatal(err)
	}
	p := lowerKernel(t, k.Build(), 4)
	r, err := search.Refine(context.Background(), p.info, p.seed, p.fiberCost, p.objective(), search.Options{Seed: 1, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Explored != 1 || r.Improved {
		t.Fatalf("budget 1 must evaluate exactly the seed: explored=%d improved=%v", r.Explored, r.Improved)
	}
	if r.Best.CanonicalKey() != p.seed.CanonicalKey() {
		t.Fatalf("budget-1 winner differs from seed:\n got %s\nwant %s", r.Best.CanonicalKey(), p.seed.CanonicalKey())
	}
	if r.BestCycles != r.SeedCycles {
		t.Fatalf("budget-1 cycles diverge: %d vs %d", r.BestCycles, r.SeedCycles)
	}
}

// TestSeedScoredFirstAndAlone: at any worker count, Refine's first
// objective call scores the seed partition and returns before any other
// call starts. The compiler relies on it to keep that call's build as the
// seed's.
func TestSeedScoredFirstAndAlone(t *testing.T) {
	k, err := kernels.ByName("umt2k-3")
	if err != nil {
		t.Fatal(err)
	}
	p := lowerKernel(t, k.Build(), 4)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		calls, seedDone, overlapped := 0, false, false
		firstKey := ""
		obj := p.objective()
		watched := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
			mu.Lock()
			calls++
			first := calls == 1
			if first {
				firstKey = cand.CanonicalKey()
			} else if !seedDone {
				overlapped = true
			}
			mu.Unlock()
			cycles, err := obj(ctx, cand)
			if first {
				mu.Lock()
				seedDone = true
				mu.Unlock()
			}
			return cycles, err
		}
		if _, err := search.Refine(context.Background(), p.info, p.seed, p.fiberCost, watched, search.Options{Seed: 5, Budget: 24, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if firstKey != p.seed.CanonicalKey() || overlapped || calls < 2 {
			t.Errorf("workers=%d: first call scored %q (seed %q), another call started before it returned: %v, %d calls",
				workers, firstKey, p.seed.CanonicalKey(), overlapped, calls)
		}
	}
}

// TestRefineStopsItsWorkers: at Workers 4, the scoring goroutines Refine
// starts have all exited when it returns, on every return path: a full
// search, a seed the objective cannot score, an objective error under a
// cancelled context, and a context cancelled between batches.
func TestRefineStopsItsWorkers(t *testing.T) {
	k, err := kernels.ByName("umt2k-3")
	if err != nil {
		t.Fatal(err)
	}
	p := lowerKernel(t, k.Build(), 4)
	score := p.objective()
	unscorable := errors.New("unscorable")
	for _, c := range []struct {
		name string
		// obj wraps the real objective; call counts calls from 1.
		obj     func(ctx context.Context, cancel func(), call int, cand *codegraph.Result) (int64, error)
		wantErr bool
	}{
		{"full search", func(ctx context.Context, _ func(), _ int, cand *codegraph.Result) (int64, error) {
			return score(ctx, cand)
		}, false},
		{"unscorable seed", func(context.Context, func(), int, *codegraph.Result) (int64, error) {
			return 0, unscorable
		}, true},
		{"objective error", func(ctx context.Context, cancel func(), call int, cand *codegraph.Result) (int64, error) {
			if call == 2 {
				cancel()
				return 0, ctx.Err()
			}
			return score(ctx, cand)
		}, true},
		{"cancelled between batches", func(ctx context.Context, cancel func(), call int, cand *codegraph.Result) (int64, error) {
			if call == 1 {
				defer cancel()
			}
			return score(ctx, cand)
		}, true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		calls, peak := 0, 0
		obj := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
			mu.Lock()
			calls++
			call := calls
			peak = max(peak, runtime.NumGoroutine())
			mu.Unlock()
			return c.obj(ctx, cancel, call, cand)
		}
		before := runtime.NumGoroutine()
		_, err := search.Refine(ctx, p.info, p.seed, p.fiberCost, obj, search.Options{Seed: 3, Budget: 24, Workers: 4})
		after := runtime.NumGoroutine()
		cancel()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Refine returned %v, want an error: %v", c.name, err, c.wantErr)
		}
		if peak < before+4 {
			t.Errorf("%s: %d goroutines while scoring, %d before: the workers never started", c.name, peak, before)
		}
		if after != before {
			t.Errorf("%s: %d goroutines after Refine returned, %d before", c.name, after, before)
		}
	}
}
