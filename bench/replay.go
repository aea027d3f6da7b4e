package main

import (
	"context"
	"fmt"
	"math"

	"fgp/internal/codegraph"
	"fgp/internal/core"
	"fgp/internal/deps"
	"fgp/internal/fiber"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/mem"
	"fgp/internal/normalize"
	"fgp/internal/outline"
	"fgp/internal/profile"
	"fgp/internal/search"
	"fgp/internal/sim"
	"fgp/internal/speculate"
	"fgp/internal/tac"
	"fgp/internal/verify"
)

// The replay calls each pipeline stage's public function in the order
// core.CompileContext does, with a span around each, so the traced run can
// say which layer the time went to. Every replayed result is cross-checked
// against core.Compile plus a simulation of its artifact (crossCheck), so
// the replay cannot drift from the real pipeline unnoticed.

// built is the part of a compiled artifact the replay needs to simulate it.
type built struct {
	loop     *ir.Loop
	programs []*isa.Program
	machine  sim.Config
	searched bool // the search partitioner ran
	improved bool // and beat the heuristic seed
}

// machineFor resolves the compile-time machine exactly as CompileContext.
func machineFor(opt core.Options) sim.Config {
	mc := sim.DefaultConfig(opt.Cores)
	if opt.Machine != nil {
		mc = *opt.Machine
		if mc.Cores < opt.Cores {
			mc.Cores = opt.Cores
		}
	}
	return mc
}

// front replays normalize, speculate, lowering, fiber partitioning and
// dependence analysis: the stages CompileContext and ComputeProfile share.
func front(t *tracer, l *ir.Loop, opt core.Options) (*ir.Loop, *tac.Fn, *fiber.Set, *deps.Info, error) {
	if opt.NormalizeOps > 0 {
		sp := t.begin("normalize")
		l, _ = normalize.Apply(l, opt.NormalizeOps)
		err := ir.Validate(l)
		t.end(sp)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("normalization produced invalid IR: %w", err)
		}
	}
	if opt.Speculate {
		sp := t.begin("speculate")
		l, _ = speculate.Apply(l)
		err := ir.Validate(l)
		t.end(sp)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("speculation produced invalid IR: %w", err)
		}
	}
	sp := t.begin("tac")
	fn, err := tac.Lower(l)
	t.end(sp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sp = t.begin("fiber")
	set, err := fiber.Partition(fn)
	t.end(sp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sp = t.begin("deps")
	info, err := deps.Analyze(fn, set)
	t.end(sp)
	return l, fn, set, info, err
}

// profileRun replays the one-core profiling simulation.
func profileRun(ctx context.Context, t *tracer, fn *tac.Fn, info *deps.Info, set *fiber.Set, mc sim.Config) (profile.Profile, error) {
	sp := t.begin("profile")
	defer t.end(sp)
	all := make([]int32, len(set.Fibers))
	for i := range all {
		all[i] = int32(i)
	}
	parts := &codegraph.Result{PartOf: make([]int32, len(set.Fibers)), Parts: [][]int32{all}, Cost: []int64{0}}
	compiled, err := outline.Generate(fn, info, parts, outline.Options{MachineCores: 1})
	if err != nil {
		return nil, err
	}
	cfg := mc
	cfg.Cores = 1
	cfg.CollectProfile = true
	m, err := sim.New(compiled.Programs, outline.BuildMemory(fn.Loop), cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return profile.FromLoadStats(res.LoadProfile), nil
}

// computeProfile replays core.ComputeProfile.
func computeProfile(ctx context.Context, t *tracer, l *ir.Loop, opt core.Options) (profile.Profile, error) {
	mc := sim.DefaultConfig(1)
	if opt.Machine != nil {
		mc = *opt.Machine
	}
	_, fn, set, info, err := front(t, l, opt)
	if err != nil {
		return nil, err
	}
	return profileRun(ctx, t, fn, info, set, mc)
}

// generate replays the pipeline tail every partition goes through:
// outlining, program validation and static verification.
func generate(t *tracer, fn *tac.Fn, info *deps.Info, parts *codegraph.Result, mc sim.Config, schedule bool, instrCost func(*tac.Instr) int64) (*outline.Compiled, error) {
	sp := t.begin("outline")
	compiled, err := outline.Generate(fn, info, parts, outline.Options{
		MachineCores:  mc.Cores,
		Schedule:      schedule,
		InstrCost:     instrCost,
		TokenDepthCap: min(8, mc.QueueLen),
	})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("isa")
	for _, prog := range compiled.Programs {
		if err = prog.Validate(mc.Cores); err != nil {
			break
		}
	}
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generated program failed validation: %w", err)
	}
	sp = t.begin("verify")
	err = verify.Check(verify.Input{
		Programs: compiled.Programs, Cores: mc.Cores, QueueLen: mc.QueueLen,
		Fn: fn, Deps: info, Parts: parts,
	})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compiled program failed static verification: %w", err)
	}
	return compiled, nil
}

// simulate runs programs on a fresh image of l under a "sim" span.
func simulate(ctx context.Context, t *tracer, l *ir.Loop, progs []*isa.Program, cfg sim.Config) (*sim.Result, *mem.Memory, error) {
	sp := t.begin("sim")
	defer t.end(sp)
	image := outline.BuildMemory(l)
	m, err := sim.New(progs, image, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	t.count(sp, res.Cycles)
	return res, image, nil
}

// compile replays core.CompileContext stage by stage.
func compile(ctx context.Context, t *tracer, l *ir.Loop, opt core.Options) (*built, error) {
	if (opt.Weights == codegraph.Weights{}) {
		opt.Weights = codegraph.DefaultWeights()
	}
	mc := machineFor(opt)
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	l, fn, set, info, err := front(t, l, opt)
	if err != nil {
		return nil, err
	}
	var prof profile.Profile
	if opt.UseProfile {
		prof = opt.Profile
		if prof == nil {
			if prof, err = profileRun(ctx, t, fn, info, set, mc); err != nil {
				return nil, fmt.Errorf("profiling run failed: %w", err)
			}
		}
	}
	instrCost := profile.InstrCost(mc.Cost, prof)
	sp := t.begin("codegraph")
	parts, err := codegraph.Merge(info, codegraph.Options{
		Targets: opt.Cores, Weights: opt.Weights, Throughput: opt.Throughput,
		MultiPair: opt.MultiPair, InstrCost: instrCost,
	})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	b := &built{loop: l, machine: mc}
	if opt.Partitioner == core.PartitionerSearch && opt.Cores > 1 && len(parts.Parts) > 1 {
		b.searched = true
		if parts, b.improved, err = searchPartition(ctx, t, l, fn, info, parts, instrCost, mc, opt); err != nil {
			return nil, err
		}
	}
	compiled, err := generate(t, fn, info, parts, mc, opt.Schedule, instrCost)
	if err != nil {
		return nil, err
	}
	sp = t.begin("sim.precompile")
	sim.PrecompileThreaded(compiled.Programs, mc.Cost)
	t.end(sp)
	b.programs = compiled.Programs
	return b, nil
}

// searchPartition replays the search refinement: every candidate goes
// through outline, isa and verify, then the threaded simulator; a winner
// that beats the seed is cross-checked against it.
func searchPartition(ctx context.Context, t *tracer, l *ir.Loop, fn *tac.Fn, info *deps.Info, seed *codegraph.Result, instrCost func(*tac.Instr) int64, mc sim.Config, opt core.Options) (*codegraph.Result, bool, error) {
	sp := t.begin("search")
	defer t.end(sp)
	objCfg := mc
	objCfg.Engine = sim.EngineThreaded
	run := func(ctx context.Context, cand *codegraph.Result) (*sim.Result, *mem.Memory, error) {
		compiled, err := generate(t, fn, info, cand, mc, opt.Schedule, instrCost)
		if err != nil {
			return nil, nil, err
		}
		return simulate(ctx, t, l, compiled.Programs, objCfg)
	}
	obj := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
		res, _, err := run(ctx, cand)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	fiberCost := make([]int64, len(seed.PartOf))
	for _, in := range fn.Instrs {
		if int(in.Fiber) < len(fiberCost) {
			fiberCost[in.Fiber] += instrCost(in)
		}
	}
	sr, err := search.Refine(ctx, info, seed, fiberCost, obj, search.Options{
		Seed: opt.SearchSeed, Budget: opt.SearchBudget, Workers: opt.SearchWorkers,
	})
	if sr != nil {
		t.count(sp, int64(sr.Explored))
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, ctxErr
		}
		if sr != nil {
			return seed, false, nil // the seed traps: keep the heuristic partition
		}
		return nil, false, fmt.Errorf("partition search failed: %w", err)
	}
	if sr.Improved {
		seedRes, seedMem, err := run(ctx, seed)
		if err != nil {
			return nil, false, fmt.Errorf("baseline run: %w", err)
		}
		bestRes, bestMem, err := run(ctx, sr.Best)
		if err != nil {
			return nil, false, fmt.Errorf("searched run: %w", err)
		}
		if err := sameOutcome(l, seedRes, seedMem, bestRes, bestMem, false); err != nil {
			return nil, false, fmt.Errorf("searched partition diverges from heuristic baseline: %w", err)
		}
	}
	sr.Best.MergeSteps = seed.MergeSteps
	return sr.Best, sr.Improved, nil
}

// sameOutcome requires two runs of one loop to agree bit for bit on every
// array and live-out, and on the cycle count when withCycles is set.
func sameOutcome(l *ir.Loop, ra *sim.Result, ma *mem.Memory, rb *sim.Result, mb *mem.Memory, withCycles bool) error {
	if withCycles && ra.Cycles != rb.Cycles {
		return fmt.Errorf("%s: %d cycles vs %d", l.Name, ra.Cycles, rb.Cycles)
	}
	for _, arr := range l.Arrays {
		if arr.K == ir.F64 {
			a, b := ma.SnapshotF(arr.Name), mb.SnapshotF(arr.Name)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return fmt.Errorf("%s: %s[%d] = %v vs %v", l.Name, arr.Name, i, a[i], b[i])
				}
			}
			continue
		}
		a, b := ma.SnapshotI(arr.Name), mb.SnapshotI(arr.Name)
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("%s: %s[%d] = %v vs %v", l.Name, arr.Name, i, a[i], b[i])
			}
		}
	}
	for _, name := range l.LiveOut {
		a, aok := ra.LiveOut[name]
		b, bok := rb.LiveOut[name]
		if aok != bok || a.K != b.K || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
			return fmt.Errorf("%s: live-out %q = %+v vs %+v", l.Name, name, a, b)
		}
	}
	return nil
}

// crossCheck compiles l with core.Compile, simulates the artifact under cfg
// and requires the replayed run (res, image) to match it exactly. A replay
// whose compile or run failed (replayErr) must fail in the library too.
func crossCheck(l *ir.Loop, opt core.Options, cfg sim.Config, replayErr error, res *sim.Result, image *mem.Memory) error {
	a, err := core.Compile(l, opt)
	var want *sim.Result
	var wantImage *mem.Memory
	if err == nil {
		want, wantImage, err = simulate(context.Background(), nil, a.Loop, a.Compiled.Programs, cfg)
	}
	if err != nil || replayErr != nil {
		if (err == nil) != (replayErr == nil) {
			return fmt.Errorf("replay cross-check %s: library error %v, replay error %v", l.Name, err, replayErr)
		}
		return nil
	}
	if err := sameOutcome(a.Loop, want, wantImage, res, image, true); err != nil {
		return fmt.Errorf("replay cross-check: %w", err)
	}
	return nil
}

// engineRate accumulates simulated cycles and host time of one engine.
type engineRate struct {
	cycles int64
	secs   float64
}

// resimulate runs programs once on every engine, outside any operation,
// and requires identical cycle counts from all of them.
func resimulate(l *ir.Loop, progs []*isa.Program, cfg sim.Config, rates map[string]*engineRate) error {
	var first int64 = -1
	for _, e := range sim.Engines() {
		c := cfg
		c.Engine = e
		start := nowSecs()
		res, _, err := simulate(context.Background(), nil, l, progs, c)
		if err != nil {
			return fmt.Errorf("%s on %s engine: %w", l.Name, e, err)
		}
		r := rates[e]
		if r == nil {
			r = &engineRate{}
			rates[e] = r
		}
		r.cycles += res.Cycles
		r.secs += nowSecs() - start
		if first >= 0 && res.Cycles != first {
			return fmt.Errorf("%s: %s engine ran %d cycles, others %d", l.Name, e, res.Cycles, first)
		}
		first = res.Cycles
	}
	return nil
}
