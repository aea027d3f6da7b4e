// Package core is the compiler driver: it runs the full pipeline from IR
// loop to per-core machine programs (optionally with control-flow
// speculation and profile feedback) and provides helpers to execute the
// result on the simulator and verify it against the reference interpreter.
//
// Pipeline (Sections III-A..III-H of the paper):
//
//	IR loop
//	  └─ option and machine checks
//	  ├─ front half (Front; reads only FrontOptions)
//	  │   └─ tree splitting (optional)  internal/normalize
//	  │   └─ speculate (optional)       internal/speculate
//	  │   └─ lower to TAC               internal/tac
//	  │   └─ fiber partitioning         internal/fiber
//	  │   └─ dependence analysis        internal/deps
//	  └─ back half (Front.Compile; Front.Profile stops after the profile)
//	      └─ profile feedback           internal/profile (+ a sequential sim run)
//	      └─ code-graph merging         internal/codegraph (+ internal/search)
//	      └─ outlining + comm           internal/outline
//	      └─ validation + verification  internal/isa, internal/verify
//	      └─ machine programs           → internal/sim
//
// The front half depends on the loop and two options only, not on the core
// count or the machine, so a caller that profiles a loop and compiles it
// for several machines (the experiments Runner) builds one Front and runs
// every back half on it. CompileContext and ComputeProfile build their own.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

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
	// SearchWorkers bounds concurrent candidate scoring (0 = one per CPU,
	// 1 = serial). It affects compile time only, never the chosen
	// partition. Callers that already run compiles from a pool of their
	// own (the experiments Runner, fgpfuzz) pass 1.
	SearchWorkers int
}

// Partitioner names accepted by Options.Partitioner ("" means heuristic).
const (
	PartitionerHeuristic = "heuristic"
	PartitionerSearch    = "search"
)

// CheckPartitioner rejects a name Options.Partitioner does not accept ("" is
// the heuristic), with the error every entry point prints.
func CheckPartitioner(name string) error {
	switch name {
	case "", PartitionerHeuristic, PartitionerSearch:
		return nil
	}
	return fmt.Errorf("unknown partitioner %q (have [%s %s])", name, PartitionerHeuristic, PartitionerSearch)
}

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

// Front is the front half of the pipeline for one loop: the loop before
// and after the pre-lowering transformations (tree splitting, speculation)
// and its TAC, fibers and dependences. It depends on the loop and
// FrontOptions only, never on the core count or the machine, so one Front
// serves a loop's profiling run (Profile) and its compiles (Compile) at
// every core count and on every machine. A Front is immutable once built
// and safe for concurrent use; artifacts compiled from it share its loops,
// TAC, fibers and dependences, which must not be modified.
type Front struct {
	opt    Options // FrontOptions of the options it was built with
	src, l *ir.Loop
	spec   speculate.Result
	fn     *tac.Fn
	set    *fiber.Set
	info   *deps.Info
}

// FrontOptions returns the part of opt the front half reads: Speculate and
// NormalizeOps (0 when tree splitting is off), with every other field
// zero. Options with equal FrontOptions share a Front.
func FrontOptions(opt Options) Options {
	return Options{Speculate: opt.Speculate, NormalizeOps: max(opt.NormalizeOps, 0)}
}

// NewFront runs the front half of the pipeline on l: tree splitting,
// speculation, lowering to TAC, fiber partitioning and dependence
// analysis, as opt's Speculate and NormalizeOps select.
func NewFront(l *ir.Loop, opt Options) (*Front, error) {
	f := &Front{opt: FrontOptions(opt), src: l}
	if opt.NormalizeOps > 0 {
		l, _ = normalize.Apply(l, opt.NormalizeOps)
		if err := ir.Validate(l); err != nil {
			return nil, fmt.Errorf("core: normalization produced invalid IR: %w", err)
		}
	}
	if opt.Speculate {
		l, f.spec = speculate.Apply(l)
		if err := ir.Validate(l); err != nil {
			return nil, fmt.Errorf("core: speculation produced invalid IR: %w", err)
		}
	}
	f.l = l

	var err error
	if f.fn, err = tac.Lower(l); err != nil {
		return nil, err
	}
	if f.set, err = fiber.Partition(f.fn); err != nil {
		return nil, err
	}
	if f.info, err = deps.Analyze(f.fn, f.set); err != nil {
		return nil, err
	}
	return f, nil
}

// accept runs check, then refuses options whose front half is not f.
func (f *Front) accept(opt Options) (sim.Config, error) {
	mc, err := check(opt)
	if fo := FrontOptions(opt); err == nil && (fo.Speculate != f.opt.Speculate || fo.NormalizeOps != f.opt.NormalizeOps) {
		err = fmt.Errorf("core: front built for speculate=%v normalize=%d cannot serve speculate=%v normalize=%d",
			f.opt.Speculate, f.opt.NormalizeOps, fo.Speculate, fo.NormalizeOps)
	}
	return mc, err
}

// check rejects bad options and an unusable machine before any pipeline
// work, and returns the machine a compile with opt targets.
func check(opt Options) (sim.Config, error) {
	if opt.Cores < 1 {
		return sim.Config{}, fmt.Errorf("core: cores must be >= 1")
	}
	if err := CheckPartitioner(opt.Partitioner); err != nil {
		return sim.Config{}, fmt.Errorf("core: %w", err)
	}
	mc := machineFor(opt)
	// Degenerate sweep points (see internal/machspace) must fail with the
	// structured *sim.ConfigError here, never surface as a mid-compile
	// panic or a simulated deadlock.
	if err := mc.Validate(); err != nil {
		return sim.Config{}, err
	}
	if mc.GroupSize > 0 && opt.Cores > mc.GroupSize {
		return sim.Config{}, fmt.Errorf("core: %d cores requested but queues connect groups of %d (Section II: the hardware provides all-to-all queues only within a group)",
			opt.Cores, mc.GroupSize)
	}
	return mc, nil
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
	mc, err := check(opt)
	if err != nil {
		return nil, err
	}
	f, err := NewFront(l, opt)
	if err != nil {
		return nil, err
	}
	return f.compile(ctx, opt, mc)
}

// Compile runs the back half of the pipeline on f: it returns the artifact
// CompileContext(ctx, l, opt) returns for the loop l that f was built from.
// It refuses options whose FrontOptions differ from f's.
func (f *Front) Compile(ctx context.Context, opt Options) (*Artifact, error) {
	mc, err := f.accept(opt)
	if err != nil {
		return nil, err
	}
	return f.compile(ctx, opt, mc)
}

// compile is the back half: profile feedback, partitioning (the greedy
// merge, refined by search when opt asks), outlining and verification, for
// options check accepted with machine mc.
func (f *Front) compile(ctx context.Context, opt Options, mc sim.Config) (*Artifact, error) {
	if (opt.Weights == codegraph.Weights{}) {
		opt.Weights = codegraph.DefaultWeights()
	}
	l, fn, set, info := f.l, f.fn, f.set, f.info

	var prof profile.Profile
	if opt.UseProfile {
		if opt.Profile != nil {
			prof = opt.Profile
		} else {
			var err error
			if prof, _, err = f.profileRun(ctx, mc); err != nil {
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
	var compiled *outline.Compiled
	if opt.Partitioner == PartitionerSearch && opt.Cores > 1 && len(parts.Parts) > 1 {
		parts, compiled, stats, err = searchPartition(ctx, l, fn, info, parts, instrCost, mc, opt)
		if err != nil {
			return nil, err
		}
	}
	if compiled == nil {
		if compiled, err = codegen(fn, info, parts, instrCost, mc, opt.Schedule); err != nil {
			return nil, err
		}
	}

	a := &Artifact{
		Loop: l, Source: f.src, Fn: fn, Fibers: set, Deps: info,
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

// scoringRun is one candidate's build and scoring run: its programs and the
// final memory image and result of simulating them.
type scoringRun struct {
	part     *codegraph.Result
	compiled *outline.Compiled
	image    *mem.Memory
	res      *sim.Result
}

// searchPartition refines the heuristic seed partition with internal/search.
// The objective compiles every candidate through the normal pipeline tail —
// outlining, program validation, and internal/verify's translation
// validation — so illegal partitions are rejected before they are ever
// scored, then simulates the survivor on the compile-time machine (the
// threaded engine unless it names another) and returns its cycle count.
// Candidates are scored opt.SearchWorkers at a time (one per CPU when 0).
//
// Each partition is built once. The objective keeps two scoring runs: the
// seed's (search.Refine scores it first and alone) and the incumbent's,
// ordered by fewest cycles and then smallest canonical key as Refine
// folds its candidates, so the incumbent is the winner for any worker
// count. When the winner beats the seed, its final memory image and
// live-outs are cross-checked bit-identical against the seed's run before
// it is accepted, and the artifact takes its programs. If the seed itself
// cannot be scored (the kernel traps on its inputs), the heuristic
// partition is kept unchanged and returned without programs.
func searchPartition(ctx context.Context, l *ir.Loop, fn *tac.Fn, info *deps.Info, seed *codegraph.Result, instrCost func(*tac.Instr) int64, mc sim.Config, opt Options) (*codegraph.Result, *outline.Compiled, searchStats, error) {
	var mu sync.Mutex
	var seedRun, best *scoringRun
	obj := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
		compiled, err := codegen(fn, info, cand, instrCost, mc, opt.Schedule)
		if err != nil {
			return 0, err
		}
		image := outline.BuildMemory(l)
		m, err := sim.New(compiled.Programs, image, mc)
		if err != nil {
			return 0, err
		}
		res, err := m.RunContext(ctx)
		if err != nil {
			return 0, err
		}
		run := &scoringRun{part: cand, compiled: compiled, image: image, res: res}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case seedRun == nil:
			seedRun, best = run, run
		case res.Cycles < best.res.Cycles,
			res.Cycles == best.res.Cycles && cand.CanonicalKey() < best.part.CanonicalKey():
			best = run
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

	workers := opt.SearchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sr, err := search.Refine(ctx, info, seed, fiberCost, obj, search.Options{
		Seed:    opt.SearchSeed,
		Budget:  opt.SearchBudget,
		Workers: workers,
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, searchStats{}, ctxErr
		}
		if sr != nil {
			// The heuristic seed itself cannot be simulated (the kernel
			// traps on its committed inputs): keep the heuristic partition
			// and report no search gain.
			return seed, nil, searchStats{explored: sr.Explored}, nil
		}
		return nil, nil, searchStats{}, fmt.Errorf("core: partition search failed: %w", err)
	}
	if best == nil || best.part != sr.Best {
		return nil, nil, searchStats{}, fmt.Errorf("core: partition search chose a partition its objective did not keep")
	}
	if sr.Improved {
		if err := sameOutcome(l, seedRun, best); err != nil {
			return nil, nil, searchStats{}, fmt.Errorf("core: searched partition diverges from heuristic baseline: %w", err)
		}
	}
	// The searched Result describes a placement, not a merge trace; keep the
	// heuristic's step count so Table III statistics stay meaningful.
	sr.Best.MergeSteps = seed.MergeSteps
	return sr.Best, best.compiled, searchStats{explored: sr.Explored, baseline: sr.SeedCycles, cycles: sr.BestCycles}, nil
}

// sameOutcome requires the searched partition's scoring run to leave final
// memory and live-out values bit-identical to the heuristic seed's, NaN
// payloads included (CheckOutcome against a snapshot of the seed's run).
// The compiler's correctness story does not rest on this check —
// internal/verify already validated the searched program — but the search
// promises it anyway: an accepted speedup must be the same computation.
func sameOutcome(l *ir.Loop, seed, best *scoringRun) error {
	want := &interp.Result{ArraysF: map[string][]float64{}, ArraysI: map[string][]int64{}, Temps: seed.res.LiveOut}
	for _, arr := range l.Arrays {
		if arr.K == ir.F64 {
			want.ArraysF[arr.Name] = seed.image.SnapshotF(arr.Name)
		} else {
			want.ArraysI[arr.Name] = seed.image.SnapshotI(arr.Name)
		}
	}
	return CheckOutcome(l, best.image, best.res.LiveOut, want, false)
}

// ComputeProfile runs the front half of the pipeline (NewFront, after the
// option and machine checks CompileContext runs) and the sequential
// profiling simulation under ctx. It returns the profile feedback Compile
// would measure for these options and the simulated cycles of that run.
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
// ProfileOptions gives the options that identify one measurement, and
// Front.Profile measures on a front the compiles share.
func ComputeProfile(ctx context.Context, l *ir.Loop, opt Options) (profile.Profile, int64, error) {
	mc, err := check(opt)
	if err != nil {
		return nil, 0, err
	}
	f, err := NewFront(l, opt)
	if err != nil {
		return nil, 0, err
	}
	return f.profileRun(ctx, mc)
}

// Profile is ComputeProfile on the loop f was built from. It refuses
// options whose FrontOptions differ from f's.
func (f *Front) Profile(ctx context.Context, opt Options) (profile.Profile, int64, error) {
	mc, err := f.accept(opt)
	if err != nil {
		return nil, 0, err
	}
	return f.profileRun(ctx, mc)
}

// profileRun compiles the loop for one core and simulates it on mc
// collecting per-load latencies. It returns the profile and the run's
// cycles.
func (f *Front) profileRun(ctx context.Context, mc sim.Config) (profile.Profile, int64, error) {
	parts := singlePartition(f.set)
	compiled, err := outline.Generate(f.fn, f.info, parts, outline.Options{MachineCores: 1})
	if err != nil {
		return nil, 0, err
	}
	cfg := mc
	cfg.Cores = 1
	cfg.CollectProfile = true
	m, err := sim.New(compiled.Programs, outline.BuildMemory(f.l), cfg)
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
// ORIGINAL (pre-speculation) loop; see CheckOutcome.
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
	if err := CheckOutcome(a.Source, memImage, res.LiveOut, ref, true); err != nil {
		return nil, fmt.Errorf("core: verify %s: %w", a.Loop.Name, err)
	}
	return res, nil
}

// A Divergence is CheckOutcome's error: the first array element or
// live-out in which a run's final state differs from the state it is held
// to.
type Divergence struct {
	LiveOut bool   // a live-out differs, not an array element
	Detail  string // the element or live-out, its value and the one wanted
}

func (d *Divergence) Error() string { return d.Detail }

// CheckOutcome compares the final state a run of l left, its memory image
// and its live-outs, with want: the reference interpreter's result, or a
// snapshot of another run. It compares every element of every array of l
// and every live-out of l by their bits, so -0 differs from +0. With
// anyNaN, any NaN matches any NaN: the interpreter's NaN payloads are not a
// contract. Two compiled runs must match exactly. It returns nil or a
// *Divergence naming the first difference.
func CheckOutcome(l *ir.Loop, image *mem.Memory, liveOut map[string]interp.Value, want *interp.Result, anyNaN bool) error {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || anyNaN && math.IsNaN(a) && math.IsNaN(b)
	}
	for _, arr := range l.Arrays {
		if arr.K == ir.F64 {
			got, w := image.SnapshotF(arr.Name), want.ArraysF[arr.Name]
			for i := range w {
				if !same(got[i], w[i]) {
					return &Divergence{Detail: fmt.Sprintf("%s[%d] = %v, want %v", arr.Name, i, got[i], w[i])}
				}
			}
		} else {
			got, w := image.SnapshotI(arr.Name), want.ArraysI[arr.Name]
			for i := range w {
				if got[i] != w[i] {
					return &Divergence{Detail: fmt.Sprintf("%s[%d] = %d, want %d", arr.Name, i, got[i], w[i])}
				}
			}
		}
	}
	for _, name := range l.LiveOut {
		got, gok := liveOut[name]
		w, wok := want.Temps[name]
		switch {
		case !gok || !wok:
			return &Divergence{LiveOut: true, Detail: fmt.Sprintf("live-out %q present=%v, want present=%v", name, gok, wok)}
		case got.K != w.K || got.I != w.I || !same(got.F, w.F):
			return &Divergence{LiveOut: true, Detail: fmt.Sprintf("live-out %q = %+v, want %+v", name, got, w)}
		}
	}
	return nil
}

// IsTrap reports whether err is a semantic trap of the loop itself, an
// integer division by zero or an out-of-bounds access, as opposed to an
// infrastructure failure such as a deadlock or a FIFO mismatch. A trap is
// a legitimate outcome the compiled code must reproduce.
func IsTrap(err error) bool {
	return errors.Is(err, interp.ErrDivByZero) ||
		errors.Is(err, interp.ErrOutOfBounds) ||
		errors.Is(err, mem.ErrOutOfBounds)
}
