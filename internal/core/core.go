// Package core is the compiler driver: it runs the full pipeline from IR
// loop to per-core machine programs (optionally with control-flow
// speculation and profile feedback) and provides helpers to execute the
// result on the simulator and verify it against the reference interpreter.
//
// Pipeline (Sections III-A..III-H of the paper):
//
//	IR loop
//	  └─ speculate (optional)    internal/speculate
//	  └─ lower to TAC            internal/tac
//	  └─ fiber partitioning      internal/fiber
//	  └─ dependence analysis     internal/deps
//	  └─ profile feedback        internal/profile (+ a sequential sim run)
//	  └─ code-graph merging      internal/codegraph
//	  └─ outlining + comm        internal/outline
//	  └─ machine programs        internal/isa → internal/sim
package core

import (
	"context"
	"fmt"
	"math"

	"fgp/internal/codegraph"
	"fgp/internal/deps"
	"fgp/internal/fiber"
	"fgp/internal/interp"
	"fgp/internal/ir"
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

// Options selects compiler behavior.
type Options struct {
	// Cores is the number of hardware cores to partition for (1 =
	// sequential compilation, no communication).
	Cores int
	// Weights for the merge heuristics; zero value uses the defaults.
	Weights codegraph.Weights
	// Throughput enables the DAG-constraining merge heuristic (ablation).
	Throughput bool
	// MultiPair merges several node pairs per step (compile-time variant).
	MultiPair bool
	// Speculate enables the control-flow speculation transformation.
	Speculate bool
	// NormalizeOps, when > 0, splits statements whose expression trees hold
	// more than this many compute operations (the Section III-A tree-depth
	// reduction). 0 leaves statements as authored.
	NormalizeOps int
	// Schedule enables within-region instruction scheduling (on in all
	// paper experiments).
	Schedule bool
	// UseProfile runs a sequential profiling simulation and feeds measured
	// load latencies to the partitioning heuristics.
	UseProfile bool
	// Profile supplies precomputed profile feedback (see ComputeProfile),
	// skipping the profiling simulation. The profile depends only on the
	// loop and the pre-lowering transformations (speculation, tree
	// splitting) plus the machine cost model — not on the target core count
	// — so one profile can feed compilations at every core count. Ignored
	// unless UseProfile is set.
	Profile profile.Profile
	// Machine overrides the simulation configuration used for profiling
	// runs (and recorded as default for Run). Cores is forced to Options
	// values as needed.
	Machine *sim.Config
	// Partitioner selects how fibers are placed onto cores:
	// PartitionerHeuristic (the default — the paper's greedy code-graph
	// merge) or PartitionerSearch, which refines the heuristic partition
	// with internal/search: beam search plus simulated annealing over merge
	// orders, scored by the threaded simulator, with every candidate gated
	// through program validation and internal/verify before scoring. The
	// search is seeded by the heuristic partition, so its result is never
	// worse. Ignored when Cores == 1 (there is nothing to place).
	Partitioner string
	// SearchSeed seeds the randomized refinement phase of
	// PartitionerSearch; the same seed and budget reproduce the same
	// partition byte for byte.
	SearchSeed int64
	// SearchBudget bounds the number of candidate partitions the search
	// may score (0 = search.DefaultBudget).
	SearchBudget int
	// SearchWorkers bounds concurrent candidate scoring (0/1 = serial). It
	// affects compile time only, never the chosen partition.
	SearchWorkers int
}

// Partitioner names accepted by Options.Partitioner ("" means heuristic).
const (
	PartitionerHeuristic = "heuristic"
	PartitionerSearch    = "search"
)

// Partitioners lists the selectable partitioners, default first.
func Partitioners() []string { return []string{PartitionerHeuristic, PartitionerSearch} }

// DefaultOptions returns the configuration used for the paper's main
// results: profile feedback on; speculation and the throughput heuristic
// off. The within-region scheduling pass is also off by default: on this
// substrate the hardware queues already decouple producers and consumers
// across iterations, and we measured the pass as neutral-to-negative (the
// paper makes the matching observation that partitioning-adjacent changes
// had unpredictable performance effects, Section III-B). It remains
// available via Schedule and is covered by the scheduling ablation.
func DefaultOptions(cores int) Options {
	return Options{Cores: cores, UseProfile: true}
}

// Report carries the compiler statistics that Table III of the paper
// reports per kernel.
type Report struct {
	Kernel        string
	Cores         int
	InitialFibers int
	DataDeps      int
	// LoadBalance is (max compute ops per partition) / (min compute ops
	// per partition); 1.0 is perfectly balanced.
	LoadBalance float64
	// ComputeOps holds the compute-operation count of each partition.
	ComputeOps []int
	// CommOps is the number of enqueue+dequeue operations inserted in the
	// loop body.
	CommOps int
	// Transfers is the number of distinct values communicated per
	// iteration.
	Transfers int
	// StaticQueues is the number of (sender, receiver) pairs with static
	// queue traffic, including the runtime protocol.
	StaticQueues int
	MergeSteps   int
	// SpeculatedIfs counts conditionals rewritten by the speculation pass.
	SpeculatedIfs int
	// Partitioner records which selector produced Parts ("heuristic" or
	// "search"). The Search* fields below are populated only for "search".
	Partitioner string
	// SearchExplored counts candidate partitions the search scored
	// (including the heuristic seed).
	SearchExplored int
	// SearchBaselineCycles is the simulated cycle count of the heuristic
	// seed partition on the threaded engine; SearchCycles is the winner's.
	// SearchCycles <= SearchBaselineCycles by construction.
	SearchBaselineCycles int64
	SearchCycles         int64
}

// Artifact is a compiled kernel. Fn, Fibers, Deps and Parts are the
// compiler's intermediate structures; they are nil on an Executable
// artifact, which is all a cache keeps.
type Artifact struct {
	Loop     *ir.Loop // post-speculation loop actually compiled
	Source   *ir.Loop // original loop
	Fn       *tac.Fn
	Fibers   *fiber.Set
	Deps     *deps.Info
	Parts    *codegraph.Result
	Compiled *outline.Compiled
	Report   Report
	machine  sim.Config
}

// Compile runs the pipeline.
func Compile(l *ir.Loop, opt Options) (*Artifact, error) {
	return CompileContext(context.Background(), l, opt)
}

// analysis is what the front half of the pipeline hands the back half:
// the validated machine, the loop before and after the pre-lowering
// transformations, and its TAC, fibers and dependences.
type analysis struct {
	mc     sim.Config
	src, l *ir.Loop
	spec   speculate.Result
	fn     *tac.Fn
	set    *fiber.Set
	info   *deps.Info
}

// analyze is the front half shared by CompileContext and ComputeProfile:
// it rejects bad options and an unusable machine, then normalizes,
// speculates, lowers, partitions into fibers and analyses dependences.
func analyze(l *ir.Loop, opt Options) (*analysis, error) {
	if opt.Cores < 1 {
		return nil, fmt.Errorf("core: cores must be >= 1")
	}
	switch opt.Partitioner {
	case "", PartitionerHeuristic, PartitionerSearch:
	default:
		return nil, fmt.Errorf("core: unknown partitioner %q (have %v)", opt.Partitioner, Partitioners())
	}
	mc := machineFor(opt)
	// Reject an unusable machine before any pipeline work: degenerate sweep
	// points (see internal/machspace) must fail with the structured
	// *sim.ConfigError here, never surface as a mid-compile panic or a
	// simulated deadlock.
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if mc.GroupSize > 0 && opt.Cores > mc.GroupSize {
		return nil, fmt.Errorf("core: %d cores requested but queues connect groups of %d (Section II: the hardware provides all-to-all queues only within a group)",
			opt.Cores, mc.GroupSize)
	}

	a := &analysis{mc: mc, src: l}
	if opt.NormalizeOps > 0 {
		l, _ = normalize.Apply(l, opt.NormalizeOps)
		if err := ir.Validate(l); err != nil {
			return nil, fmt.Errorf("core: normalization produced invalid IR: %w", err)
		}
	}
	if opt.Speculate {
		l, a.spec = speculate.Apply(l)
		if err := ir.Validate(l); err != nil {
			return nil, fmt.Errorf("core: speculation produced invalid IR: %w", err)
		}
	}
	a.l = l

	var err error
	if a.fn, err = tac.Lower(l); err != nil {
		return nil, err
	}
	if a.set, err = fiber.Partition(a.fn); err != nil {
		return nil, err
	}
	if a.info, err = deps.Analyze(a.fn, a.set); err != nil {
		return nil, err
	}
	return a, nil
}

// machineFor resolves the machine a compile targets: Options.Machine, or
// the paper default, widened to at least Options.Cores cores.
func machineFor(opt Options) sim.Config {
	if opt.Machine == nil {
		return sim.DefaultConfig(opt.Cores)
	}
	mc := *opt.Machine
	if mc.Cores < opt.Cores {
		mc.Cores = opt.Cores
	}
	return mc
}

// CompileContext is Compile with cooperative cancellation: the profiling
// simulation (the only unbounded-cost stage of the pipeline) aborts within
// one cancellation stride when ctx is cancelled, returning ctx.Err().
func CompileContext(ctx context.Context, l *ir.Loop, opt Options) (*Artifact, error) {
	f, err := analyze(l, opt)
	if err != nil {
		return nil, err
	}
	if (opt.Weights == codegraph.Weights{}) {
		opt.Weights = codegraph.DefaultWeights()
	}
	mc, src, l, fn, set, info := f.mc, f.src, f.l, f.fn, f.set, f.info

	var prof profile.Profile
	if opt.UseProfile {
		if opt.Profile != nil {
			prof = opt.Profile
		} else {
			prof, _, err = profileRun(ctx, fn, info, set, mc)
			if err != nil {
				return nil, fmt.Errorf("core: profiling run failed: %w", err)
			}
		}
	}
	instrCost := profile.InstrCost(mc.Cost, prof)

	parts, err := codegraph.Merge(info, codegraph.Options{
		Targets:    opt.Cores,
		Weights:    opt.Weights,
		Throughput: opt.Throughput,
		MultiPair:  opt.MultiPair,
		InstrCost:  instrCost,
	})
	if err != nil {
		return nil, err
	}
	var stats searchStats
	if opt.Partitioner == PartitionerSearch && opt.Cores > 1 && len(parts.Parts) > 1 {
		parts, stats, err = searchPartition(ctx, l, fn, info, parts, instrCost, mc, opt)
		if err != nil {
			return nil, err
		}
	}

	compiled, err := codegen(fn, info, parts, instrCost, mc, opt.Schedule)
	if err != nil {
		return nil, err
	}

	a := &Artifact{
		Loop: l, Source: src, Fn: fn, Fibers: set, Deps: info,
		Parts: parts, Compiled: compiled, machine: mc,
	}
	a.Report = buildReport(l.Name, opt.Cores, set, info, parts, compiled, f.spec)
	a.Report.Partitioner = PartitionerHeuristic
	if opt.Partitioner == PartitionerSearch {
		a.Report.Partitioner = PartitionerSearch
		a.Report.SearchExplored = stats.explored
		a.Report.SearchBaselineCycles = stats.baseline
		a.Report.SearchCycles = stats.cycles
	}
	return a, nil
}

// codegen is the pipeline tail every partition goes through: outlining
// (token priming capped by the queue length), program validation and
// static verification.
func codegen(fn *tac.Fn, info *deps.Info, parts *codegraph.Result, instrCost func(*tac.Instr) int64, mc sim.Config, schedule bool) (*outline.Compiled, error) {
	compiled, err := outline.Generate(fn, info, parts, outline.Options{
		MachineCores:  mc.Cores,
		Schedule:      schedule,
		InstrCost:     instrCost,
		TokenDepthCap: min(8, mc.QueueLen),
	})
	if err != nil {
		return nil, err
	}
	for _, prog := range compiled.Programs {
		if err := prog.Validate(mc.Cores); err != nil {
			return nil, fmt.Errorf("core: generated program failed validation: %w", err)
		}
	}
	if err := verify.Check(verify.Input{
		Programs: compiled.Programs, Cores: mc.Cores, QueueLen: mc.QueueLen,
		Fn: fn, Deps: info, Parts: parts,
	}); err != nil {
		return nil, fmt.Errorf("core: compiled program failed static verification: %w", err)
	}
	return compiled, nil
}

type searchStats struct {
	explored int
	baseline int64
	cycles   int64
}

// searchPartition refines the heuristic seed partition with internal/search.
// The objective compiles every candidate through the normal pipeline tail —
// outlining, program validation, and internal/verify's translation
// validation — so illegal partitions are rejected before they are ever
// scored, then simulates the survivor on the compile-time machine (the
// threaded engine unless it names another) and returns its cycle count.
// When the winner differs from the seed, its final memory image and
// live-outs are cross-checked bit-identical against the seed's before it
// is accepted. If the seed itself cannot be scored (the kernel
// traps on its inputs), the heuristic partition is kept unchanged.
func searchPartition(ctx context.Context, l *ir.Loop, fn *tac.Fn, info *deps.Info, seed *codegraph.Result, instrCost func(*tac.Instr) int64, mc sim.Config, opt Options) (*codegraph.Result, searchStats, error) {
	build := func(cand *codegraph.Result) (*outline.Compiled, error) {
		return codegen(fn, info, cand, instrCost, mc, opt.Schedule)
	}
	simulate := func(ctx context.Context, compiled *outline.Compiled, image *mem.Memory) (*sim.Result, error) {
		m, err := sim.New(compiled.Programs, image, mc)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx)
	}
	obj := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
		compiled, err := build(cand)
		if err != nil {
			return 0, err
		}
		res, err := simulate(ctx, compiled, outline.BuildMemory(l))
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}

	fiberCost := make([]int64, len(seed.PartOf))
	for i := range fn.Instrs {
		in := fn.Instrs[i]
		if int(in.Fiber) < len(fiberCost) {
			fiberCost[in.Fiber] += instrCost(in)
		}
	}

	sr, err := search.Refine(ctx, info, seed, fiberCost, obj, search.Options{
		Seed:    opt.SearchSeed,
		Budget:  opt.SearchBudget,
		Workers: opt.SearchWorkers,
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, searchStats{}, ctxErr
		}
		if sr != nil {
			// The heuristic seed itself cannot be simulated (the kernel
			// traps on its committed inputs): keep the heuristic partition
			// and report no search gain.
			return seed, searchStats{explored: sr.Explored}, nil
		}
		return nil, searchStats{}, fmt.Errorf("core: partition search failed: %w", err)
	}

	if sr.Improved {
		if err := crossCheckPartitions(ctx, l, seed, sr.Best, build, simulate); err != nil {
			return nil, searchStats{}, fmt.Errorf("core: searched partition diverges from heuristic baseline: %w", err)
		}
	}
	// The searched Result describes a placement, not a merge trace; keep the
	// heuristic's step count so Table III statistics stay meaningful.
	sr.Best.MergeSteps = seed.MergeSteps
	return sr.Best, searchStats{explored: sr.Explored, baseline: sr.SeedCycles, cycles: sr.BestCycles}, nil
}

// crossCheckPartitions simulates the heuristic and searched partitions on
// fresh memory images and requires bit-identical final memory and live-out
// values. The compiler's correctness story does not rest on this check —
// internal/verify already validated the searched program — but the search
// promises it anyway: an accepted speedup must be the same computation.
func crossCheckPartitions(ctx context.Context, l *ir.Loop, seed, best *codegraph.Result, build func(*codegraph.Result) (*outline.Compiled, error), simulate func(context.Context, *outline.Compiled, *mem.Memory) (*sim.Result, error)) error {
	runSide := func(cand *codegraph.Result) (*mem.Memory, *sim.Result, error) {
		compiled, err := build(cand)
		if err != nil {
			return nil, nil, err
		}
		image := outline.BuildMemory(l)
		res, err := simulate(ctx, compiled, image)
		return image, res, err
	}
	seedMem, seedRes, err := runSide(seed)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	bestMem, bestRes, err := runSide(best)
	if err != nil {
		return fmt.Errorf("searched run: %w", err)
	}
	for _, arr := range l.Arrays {
		if arr.K == ir.F64 {
			a, b := seedMem.SnapshotF(arr.Name), bestMem.SnapshotF(arr.Name)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return fmt.Errorf("%s[%d] = %v (heuristic) vs %v (search)", arr.Name, i, a[i], b[i])
				}
			}
		} else {
			a, b := seedMem.SnapshotI(arr.Name), bestMem.SnapshotI(arr.Name)
			for i := range a {
				if a[i] != b[i] {
					return fmt.Errorf("%s[%d] = %v (heuristic) vs %v (search)", arr.Name, i, a[i], b[i])
				}
			}
		}
	}
	for _, name := range l.LiveOut {
		a, aok := seedRes.LiveOut[name]
		b, bok := bestRes.LiveOut[name]
		if aok != bok {
			return fmt.Errorf("live-out %q present=%v (heuristic) vs present=%v (search)", name, aok, bok)
		}
		if a.K != b.K || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
			return fmt.Errorf("live-out %q = %+v (heuristic) vs %+v (search)", name, a, b)
		}
	}
	return nil
}

// ComputeProfile runs the front half of the pipeline (the same validation,
// normalization, speculation, lowering, fiber partitioning and dependence
// analysis CompileContext runs) and the sequential profiling simulation
// under ctx. It returns the profile feedback Compile would measure for
// these options and the simulated cycles of that run.
//
// The profiling run simulates the loop's one-core, single-partition
// program, so its cycles are the loop's sequential baseline: they equal
// those of CompileSequential's artifact run on the same machine, which is
// how the experiments Runner serves baselines without a second compile.
// Neither result depends on Options.Cores or on the machine's queue levers
// (the profiling machine has one core and its program no enq or deq), so
// callers compiling one loop variant at several core counts can measure
// once and pass the profile to each compilation via Options.Profile —
// bit-identical to letting every Compile run its own profiling simulation.
// ProfileOptions gives the options that identify one measurement.
func ComputeProfile(ctx context.Context, l *ir.Loop, opt Options) (profile.Profile, int64, error) {
	a, err := analyze(l, opt)
	if err != nil {
		return nil, 0, err
	}
	return profileRun(ctx, a.fn, a.info, a.set, a.mc)
}

// profileRun compiles the loop for one core and simulates it collecting
// per-load latencies. It returns the profile and the run's cycles.
func profileRun(ctx context.Context, fn *tac.Fn, info *deps.Info, set *fiber.Set, mc sim.Config) (profile.Profile, int64, error) {
	parts := singlePartition(set)
	compiled, err := outline.Generate(fn, info, parts, outline.Options{MachineCores: 1})
	if err != nil {
		return nil, 0, err
	}
	cfg := mc
	cfg.Cores = 1
	cfg.CollectProfile = true
	m, err := sim.New(compiled.Programs, outline.BuildMemory(fn.Loop), cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := m.RunContext(ctx)
	if err != nil {
		return nil, 0, err
	}
	return profile.FromLoadStats(res.LoadProfile), res.Cycles, nil
}

// singlePartition places every fiber in one partition (sequential code).
func singlePartition(set *fiber.Set) *codegraph.Result {
	r := &codegraph.Result{PartOf: make([]int32, len(set.Fibers))}
	var fibers []int32
	for i := range set.Fibers {
		fibers = append(fibers, int32(i))
	}
	r.Parts = [][]int32{fibers}
	r.Cost = []int64{0}
	return r
}

func buildReport(name string, cores int, set *fiber.Set, info *deps.Info, parts *codegraph.Result, compiled *outline.Compiled, spec speculate.Result) Report {
	rep := Report{
		Kernel:        name,
		Cores:         cores,
		InitialFibers: len(set.Fibers),
		DataDeps:      info.DataDepCount(),
		CommOps:       compiled.CommOps,
		Transfers:     compiled.Transfers,
		StaticQueues:  compiled.StaticQueues,
		MergeSteps:    parts.MergeSteps,
		SpeculatedIfs: spec.Transformed,
	}
	for _, fibers := range parts.Parts {
		ops := 0
		for _, f := range fibers {
			ops += set.ComputeOps(set.Fibers[f])
		}
		rep.ComputeOps = append(rep.ComputeOps, ops)
	}
	maxOps, minOps := 0, math.MaxInt
	for _, o := range rep.ComputeOps {
		if o > maxOps {
			maxOps = o
		}
		if o < minOps {
			minOps = o
		}
	}
	if minOps < 1 {
		minOps = 1
	}
	if maxOps < 1 {
		maxOps = 1
	}
	rep.LoadBalance = float64(maxOps) / float64(minOps)
	return rep
}

// CompileSequential compiles the loop for a single core without any
// communication; the baseline of every speedup the paper reports.
func CompileSequential(l *ir.Loop) (*Artifact, error) {
	opt := DefaultOptions(1)
	opt.UseProfile = false
	return Compile(l, opt)
}

// Run simulates the artifact on a fresh memory image.
func (a *Artifact) Run(cfg sim.Config) (*sim.Result, error) {
	return a.RunContext(context.Background(), cfg)
}

// RunContext simulates the artifact on a fresh memory image, aborting
// within one cancellation stride with ctx.Err() when ctx is cancelled.
func (a *Artifact) RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	m, err := sim.New(a.Compiled.Programs, outline.BuildMemory(a.Loop), cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// RunDefault simulates with the configuration captured at compile time.
func (a *Artifact) RunDefault() (*sim.Result, error) { return a.Run(a.machine) }

// MachineConfig returns the simulation configuration captured at compile
// time.
func (a *Artifact) MachineConfig() sim.Config { return a.machine }

// Verify simulates the artifact and checks its final memory image and
// live-out values bit-for-bit against the reference interpreter running the
// ORIGINAL (pre-speculation) loop.
func (a *Artifact) Verify(cfg sim.Config) (*sim.Result, error) {
	cfg.DebugEdges = true
	memImage := outline.BuildMemory(a.Loop)
	m, err := sim.New(a.Compiled.Programs, memImage, cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	ref, err := interp.Run(a.Source)
	if err != nil {
		return nil, err
	}
	for _, arr := range a.Source.Arrays {
		if arr.K == ir.F64 {
			got := memImage.SnapshotF(arr.Name)
			want := ref.ArraysF[arr.Name]
			for i := range want {
				if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					return nil, fmt.Errorf("core: verify %s: %s[%d] = %v, want %v", a.Loop.Name, arr.Name, i, got[i], want[i])
				}
			}
		} else {
			got := memImage.SnapshotI(arr.Name)
			want := ref.ArraysI[arr.Name]
			for i := range want {
				if got[i] != want[i] {
					return nil, fmt.Errorf("core: verify %s: %s[%d] = %v, want %v", a.Loop.Name, arr.Name, i, got[i], want[i])
				}
			}
		}
	}
	for _, name := range a.Source.LiveOut {
		got, ok := res.LiveOut[name]
		if !ok {
			return nil, fmt.Errorf("core: verify %s: live-out %q missing from result", a.Loop.Name, name)
		}
		want := ref.Temps[name]
		if got.K != want.K || got.F != want.F && !(math.IsNaN(got.F) && math.IsNaN(want.F)) || got.I != want.I {
			return nil, fmt.Errorf("core: verify %s: live-out %q = %+v, want %+v", a.Loop.Name, name, got, want)
		}
	}
	return res, nil
}
