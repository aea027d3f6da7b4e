// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): Fig 12 (per-kernel speedups on 2 and 4 cores),
// Table I (kernel inventory), Table II (whole-application expected
// speedups), Table III (per-kernel compiler statistics), Fig 13 (queue
// transfer-latency sensitivity), Fig 14 (control-flow speculation), the
// Section III-B throughput-heuristic ablation, and two extension sweeps
// (queue length, multi-pair merging).
//
// Experiments fan kernel×variant compilations and simulations out across a
// bounded worker pool (see ParallelEach); the Runner's artifact cache is
// sharded and deduplicates concurrent compilations of the same variant, so
// every artifact is compiled exactly once no matter how many experiments
// request it at the same time.
package experiments

import (
	"fmt"
	"hash/fnv"
	"sync"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/profile"
	"fgp/internal/sim"
)

// artShards bounds lock contention when many workers consult the artifact
// cache at once. Lookups hash the kernel name, so variants of one kernel
// share a shard but different kernels spread across all of them.
const artShards = 16

// Runner caches compiled artifacts and sequential baselines across
// experiments so regenerating the full evaluation stays fast. It is safe
// for concurrent use: each cache entry is filled exactly once
// (singleflight), with concurrent requesters blocking on the first
// compilation instead of duplicating it.
type Runner struct {
	workers int
	engine  string // sim engine for every simulation; "" = the threaded default

	shards [artShards]artShard
	seqMu  sync.Mutex
	seq    map[string]*seqEntry
	profMu sync.Mutex
	profs  map[profKey]*profEntry
}

type artShard struct {
	mu sync.Mutex
	m  map[artKey]*artEntry
}

// artEntry is a singleflight cell: the first goroutine to reach it compiles
// the artifact inside once.Do while later arrivals block until it is done.
type artEntry struct {
	once sync.Once
	a    *core.Artifact
	err  error
}

type seqEntry struct {
	once sync.Once
	cy   int64
	err  error
}

// profKey identifies a profiling measurement: everything that can change
// the profiled load latencies — the pre-lowering IR transformations and any
// machine override — but not the target core count (the profiling machine
// always has one core), so 2- and 4-core compilations of one variant share
// a single profiling simulation.
type profKey struct {
	kernel    string
	speculate bool
	normalize int
	queueLen  int
}

type profEntry struct {
	once sync.Once
	p    profile.Profile
	err  error
}

type artKey struct {
	kernel       string
	cores        int
	speculate    bool
	throughput   bool
	multiPair    bool
	schedule     bool
	queueLen     int
	normalize    int
	partitioner  string
	searchBudget int
	searchSeed   int64
}

func (k artKey) shard() int {
	h := fnv.New32a()
	h.Write([]byte(k.kernel))
	return int(h.Sum32() % artShards)
}

// NewRunner returns an empty cache. By default experiments use one worker
// per available CPU; see SetWorkers.
func NewRunner() *Runner {
	r := &Runner{seq: map[string]*seqEntry{}, profs: map[profKey]*profEntry{}}
	for i := range r.shards {
		r.shards[i].m = map[artKey]*artEntry{}
	}
	return r
}

// SetWorkers bounds the worker pool used by the experiment sweeps: n > 0
// uses exactly n workers (1 = fully serial), n <= 0 restores the default of
// one worker per available CPU. Call before launching experiments, not
// concurrently with them.
func (r *Runner) SetWorkers(n int) { r.workers = n }

// SetEngine routes every simulation this runner launches — main runs,
// sequential baselines, and compile-time profiling runs — through the named
// sim engine ("" or sim.EngineThreaded for the default,
// sim.EngineReference). Results are bit-identical across engines; only host
// time changes. Call before launching experiments, not concurrently with
// them.
func (r *Runner) SetEngine(engine string) { r.engine = engine }

// each runs f(0..n-1) on this runner's worker pool.
func (r *Runner) each(n int, f func(int) error) error {
	return ParallelEach(n, r.workers, f)
}

// Variant selects compiler options for an experiment.
type Variant struct {
	Cores      int
	Speculate  bool
	Throughput bool
	MultiPair  bool
	Schedule   bool
	// QueueLen overrides the hardware queue length (0 = paper default 20).
	// It is a compile-time property too: carried-token priming must fit.
	QueueLen int
	// NormalizeOps enables the Section III-A tree-splitting pre-pass with
	// the given statement size bound (0 = off).
	NormalizeOps int
	// Partitioner selects the partition selector ("" or "heuristic" for
	// the paper's greedy merge, "search" for the internal/search
	// refinement); SearchBudget and SearchSeed configure the latter and
	// are part of the artifact cache identity.
	Partitioner  string
	SearchBudget int
	SearchSeed   int64
}

func (v Variant) options() core.Options {
	opt := core.DefaultOptions(v.Cores)
	opt.Speculate = v.Speculate
	opt.Throughput = v.Throughput
	opt.MultiPair = v.MultiPair
	opt.Schedule = v.Schedule
	opt.NormalizeOps = v.NormalizeOps
	opt.Partitioner = v.Partitioner
	opt.SearchBudget = v.SearchBudget
	opt.SearchSeed = v.SearchSeed
	if v.QueueLen > 0 {
		cfg := sim.DefaultConfig(v.Cores)
		cfg.QueueLen = v.QueueLen
		opt.Machine = &cfg
	}
	return opt
}

// Artifact compiles (or returns the cached artifact for) one kernel
// variant. Concurrent calls for the same variant compile it once and share
// the result.
func (r *Runner) Artifact(k *kernels.Kernel, v Variant) (*core.Artifact, error) {
	key := artKey{k.Name, v.Cores, v.Speculate, v.Throughput, v.MultiPair, v.Schedule, v.QueueLen, v.NormalizeOps, v.Partitioner, v.SearchBudget, v.SearchSeed}
	sh := &r.shards[key.shard()]
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		e = &artEntry{}
		sh.m[key] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		opt := v.options()
		if r.engine == sim.EngineReference {
			// Route the compile-time profiling simulation through the
			// reference engine too, so a reference runner simulates nothing
			// on the threaded engine (the honest baseline for host-speed
			// comparisons — the profile cache below is likewise bypassed,
			// matching the one profiling run per compilation of the original
			// implementation).
			if opt.Machine == nil {
				cfg := sim.DefaultConfig(v.Cores)
				opt.Machine = &cfg
			}
			opt.Machine.Engine = sim.EngineReference
		} else if opt.UseProfile {
			p, err := r.profileFor(k, v)
			if err != nil {
				e.err = fmt.Errorf("experiments: %s (%d cores): %w", k.Name, v.Cores, err)
				return
			}
			opt.Profile = p
		}
		a, err := core.Compile(k.Build(), opt)
		if err != nil {
			e.err = fmt.Errorf("experiments: %s (%d cores): %w", k.Name, v.Cores, err)
			return
		}
		e.a = a
	})
	return e.a, e.err
}

// profileFor measures (or returns the cached) profile feedback for one
// kernel variant; all core counts of a variant share the measurement.
func (r *Runner) profileFor(k *kernels.Kernel, v Variant) (profile.Profile, error) {
	key := profKey{k.Name, v.Speculate, v.NormalizeOps, v.QueueLen}
	r.profMu.Lock()
	e, ok := r.profs[key]
	if !ok {
		e = &profEntry{}
		r.profs[key] = e
	}
	r.profMu.Unlock()
	e.once.Do(func() {
		opt := v.options()
		if r.engine != "" {
			// The profiling simulation runs on the runner's engine too, so a
			// threaded sweep exercises the threaded engine end to end.
			if opt.Machine == nil {
				cfg := sim.DefaultConfig(v.Cores)
				opt.Machine = &cfg
			}
			opt.Machine.Engine = r.engine
		}
		e.p, e.err = core.ComputeProfile(k.Build(), opt)
	})
	return e.p, e.err
}

// SeqCycles returns the sequential baseline cycle count for a kernel,
// compiling and simulating it at most once per runner.
func (r *Runner) SeqCycles(k *kernels.Kernel) (int64, error) {
	r.seqMu.Lock()
	e, ok := r.seq[k.Name]
	if !ok {
		e = &seqEntry{}
		r.seq[k.Name] = e
	}
	r.seqMu.Unlock()
	e.once.Do(func() {
		a, err := core.CompileSequential(k.Build())
		if err != nil {
			e.err = err
			return
		}
		cfg := a.MachineConfig()
		cfg.Engine = r.engine
		res, err := a.Run(cfg)
		if err != nil {
			e.err = err
			return
		}
		e.cy = res.Cycles
	})
	return e.cy, e.err
}

// Speedup runs a kernel variant (optionally overriding the machine config)
// and returns sequential-cycles / parallel-cycles plus the raw result.
func (r *Runner) Speedup(k *kernels.Kernel, v Variant, mod func(*sim.Config)) (float64, *sim.Result, *core.Artifact, error) {
	seq, err := r.SeqCycles(k)
	if err != nil {
		return 0, nil, nil, err
	}
	a, err := r.Artifact(k, v)
	if err != nil {
		return 0, nil, nil, err
	}
	cfg := a.MachineConfig()
	cfg.Engine = r.engine
	if mod != nil {
		mod(&cfg)
	}
	res, err := a.Run(cfg)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("experiments: run %s: %w", k.Name, err)
	}
	return float64(seq) / float64(res.Cycles), res, a, nil
}
