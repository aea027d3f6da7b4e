// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): Fig 12 (per-kernel speedups on 2 and 4 cores),
// Table I (kernel inventory), Table II (whole-application expected
// speedups), Table III (per-kernel compiler statistics), Fig 13 (queue
// transfer-latency sensitivity), Fig 14 (control-flow speculation), the
// Section III-B throughput-heuristic ablation, and two extension sweeps
// (queue length, multi-pair merging).
//
// Experiments fan kernel×variant compilations and simulations out across a
// bounded worker pool (see ParallelEach). The Runner resolves every
// artifact, profile and sequential baseline through one content-addressed
// cache (internal/artcache): an entry's address is the canonical compile
// options (core.CanonicalOptions) plus the kernel's digest, so every
// variant is compiled exactly once no matter how many experiments — or, in
// fgpd, how many requests and sweeps — ask for it, and two loops that share
// a name never share an entry. Simulation results are memoized the same
// way, by the artifact's address plus the canonical run configuration
// (core.CanonicalRun), so the many experiments that rerun Fig 12's 4-core
// machine simulate it once. Below those fills, a loop's front half
// (core.Front) is addressed by core.FrontOptions and the digest, so a
// loop's profiling run and its compiles at every core count and machine
// lower and analyse it once.
package experiments

import (
	"context"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"fgp/internal/artcache"
	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/profile"
	"fgp/internal/sim"
)

// Runner resolves compiled artifacts, profiles, sequential baselines and
// simulation results through content-addressed singleflight caches, so
// regenerating the full evaluation stays fast. It is safe for concurrent
// use: each entry is filled exactly once, with concurrent requesters
// blocking on the first fill instead of duplicating it.
//
// It keeps four caches. Artifacts and baselines share one, the only one
// with a disk tier; profiles, fronts and results each have their own, in
// memory only, so their fills stay out of the shared cache's counters.
// Every profile and compile fill takes its loop's front from the fronts
// cache, so an fgpd miss (a baseline, its profile and one compile) or a
// frontier sweep (one profile and a compile per machine) lowers and
// analyses its loop once.
type Runner struct {
	workers int
	engine  string // sim engine for every simulation; "" = the threaded default

	cache *artcache.Cache // artifacts and sequential baselines
	// profiles holds profiling runs, whose feedback feeds artifact fills
	// and whose cycles fill sequential baselines.
	profiles *artcache.Cache
	// fronts holds loops' front halves, at most maxFronts of them.
	fronts *artcache.Cache
	// results memoizes simulation results, at most maxResults of them (see
	// Simulate).
	results *artcache.Cache
}

// maxFronts bounds the front cache. A front is large, about 120 KB for a
// generated loop and 140 KB for a tier-1 kernel, so the cache stays near
// 2.2 MB, and it is needed only while its loop's profile and compile
// fills run: milliseconds for a miss or a sweep. The bound holds
// cache-wide; a front evicted while its loop's fills still run (more than
// maxFronts loops in flight) costs one rebuild, never a wrong result.
const maxFronts = 16

// maxResults bounds the simulation-result memo. A full fgpexp evaluation
// holds 500 distinct results, and a result at fgpd's 16-core limit takes
// about 0.7 KB (four per-core slices and the live-outs), so the memo stays
// near 1.5 MB however many machines fgpd's sweeps cover.
const maxResults = 2048

// The cache entry kinds a Runner fills. Artifacts and baselines persist
// when the cache has a disk tier; profiles stay in memory.
var (
	artKind = &artcache.Kind{
		Name:   "art",
		Encode: func(v any) ([]byte, error) { return v.(*core.Artifact).MarshalBinary() },
		Decode: func(data []byte) (any, error) { return core.UnmarshalArtifact(data) },
	}
	seqKind = &artcache.Kind{
		Name:   "seq",
		Encode: func(v any) ([]byte, error) { return strconv.AppendInt(nil, v.(int64), 10), nil },
		Decode: func(data []byte) (any, error) { return strconv.ParseInt(string(data), 10, 64) },
	}
	profKind  = &artcache.Kind{Name: "prof"}
	frontKind = &artcache.Kind{Name: "front"}
	// A simulation fill runs under its requester's context, so a client
	// that leaves aborts it; see internal/artcache.
	runKind = &artcache.Kind{Name: "run", Attached: true}
)

// NewRunner returns a runner over an empty memory-only cache. By default
// experiments use one worker per available CPU; see SetWorkers.
func NewRunner() *Runner { return NewTieredRunner(nil, 0) }

// NewTieredRunner returns a runner whose cache has the disk tier d (nil
// for memory only) and bounds each fill by budget (0 for no bound).
// Compile fills run detached from the requester's context; see
// internal/artcache.
func NewTieredRunner(d artcache.Disk, budget time.Duration) *Runner {
	return &Runner{
		cache:    artcache.New(d, budget),
		profiles: artcache.New(nil, budget),
		fronts:   artcache.NewBounded(maxFronts, budget),
		results:  artcache.NewBounded(maxResults, budget),
	}
}

// Cache returns the runner's artifact cache, for callers that cache work
// derived from its artifacts (fgpd's swept surfaces) under the same tiers
// and counters.
func (r *Runner) Cache() *artcache.Cache { return r.cache }

// SetWorkers bounds the worker pool used by the experiment sweeps: n > 0
// uses exactly n workers (1 = fully serial), n <= 0 restores the default of
// one worker per available CPU. Call before launching experiments, not
// concurrently with them.
func (r *Runner) SetWorkers(n int) { r.workers = n }

// SetEngine routes every simulation this runner launches — main runs,
// sequential baselines, profiling runs and search candidates' scoring runs
// — through the named sim engine ("" or sim.EngineThreaded for the default,
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
	// count in the artifact's address only under search.
	Partitioner  string
	SearchBudget int
	SearchSeed   int64
}

// Options returns the compiler options the variant selects.
func (v Variant) Options() core.Options {
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
	a, _, _, err := r.ArtifactContext(context.Background(), k, v.Options())
	return a, err
}

// ArtifactContext resolves the artifact k compiles to under opt: from
// memory, from the disk tier, or by compiling core.CanonicalOptions(opt).
// It returns the artifact's content address and whether an existing memory
// entry served it. The artifact is core's Executable form, and its
// MachineConfig is the canonical machine: callers apply run-time levers
// such as the transfer latency themselves. A waiter whose ctx ends gives
// up; the compile carries on for the others.
func (r *Runner) ArtifactContext(ctx context.Context, k *kernels.Kernel, opt core.Options) (a *core.Artifact, addr string, hit bool, err error) {
	opt = core.CanonicalOptions(opt)
	addr = artcache.Address(k.Digest(), opt)
	v, hit, err := r.cache.Do(ctx, artKind, addr, func(ctx context.Context) (any, error) {
		a, err := r.compile(ctx, k, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (%d cores): %w", k.Name, opt.Cores, err)
		}
		return a.Executable(), nil
	})
	if err != nil {
		return nil, addr, hit, err
	}
	return v.(*core.Artifact), addr, hit, nil
}

// compile runs one artifact fill on the loop's cached front and cached
// profile, which the profile fill measured on the runner's engine. The
// compile machine carries that engine too, so a searched fill scores its
// candidates on it, one at a time: fills run from the runner's pool or an
// fgpd request's slot.
func (r *Runner) compile(ctx context.Context, k *kernels.Kernel, opt core.Options) (*core.Artifact, error) {
	opt.SearchWorkers = 1
	mc := *opt.Machine
	mc.Engine = r.engine
	opt.Machine = &mc
	if opt.UseProfile {
		p, err := r.profile(ctx, k, opt)
		if err != nil {
			return nil, err
		}
		opt.Profile = p.prof
	}
	f, err := r.front(ctx, k, opt)
	if err != nil {
		return nil, err
	}
	return f.Compile(ctx, opt)
}

// front resolves (or returns the cached) front half of k under opt; see
// core.FrontOptions.
func (r *Runner) front(ctx context.Context, k *kernels.Kernel, opt core.Options) (*core.Front, error) {
	fopt := core.FrontOptions(opt)
	v, _, err := r.fronts.Do(ctx, frontKind, artcache.Address(k.Digest(), fopt), func(context.Context) (any, error) {
		return core.NewFront(k.Build(), fopt)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Front), nil
}

// FrontStats returns the front cache's counters.
func (r *Runner) FrontStats() artcache.Stats { return r.fronts.Stats() }

// profiled is a profile entry: the feedback of one profiling run and that
// run's simulated cycles, which are the loop's sequential baseline on the
// run's machine (see core.ComputeProfile).
type profiled struct {
	prof   profile.Profile
	cycles int64
}

// profile measures (or returns the cached) profiling run a compile of k
// under the canonical options opt feeds on; see core.ProfileOptions. The
// profile's address ignores the queue levers, so opt's full machine is
// validated first: a degenerate queue is refused with its *sim.ConfigError
// before anything simulates.
func (r *Runner) profile(ctx context.Context, k *kernels.Kernel, opt core.Options) (profiled, error) {
	if err := opt.Machine.Validate(); err != nil {
		return profiled{}, err
	}
	popt := core.ProfileOptions(opt)
	v, _, err := r.profiles.Do(ctx, profKind, artcache.Address(k.Digest(), popt), func(ctx context.Context) (any, error) {
		// The profiling simulation runs on the runner's engine too, so a
		// threaded sweep exercises the threaded engine end to end.
		mc := *popt.Machine
		mc.Engine = r.engine
		popt.Machine = &mc
		f, err := r.front(ctx, k, popt)
		if err != nil {
			return nil, err
		}
		p, cycles, err := f.Profile(ctx, popt)
		if err != nil {
			return nil, err
		}
		return profiled{p, cycles}, nil
	})
	if err != nil {
		return profiled{}, err
	}
	return v.(profiled), nil
}

// SeqCycles returns the sequential baseline cycle count for a kernel on the
// paper-default machine; see SeqCyclesContext.
func (r *Runner) SeqCycles(k *kernels.Kernel) (int64, error) {
	cy, _, err := r.SeqCyclesContext(context.Background(), k, sim.DefaultConfig(1))
	return cy, err
}

// SeqCyclesContext resolves the sequential baseline of k on the one-core
// machine mc, addressed like an artifact by the canonical options of the
// sequential compile for mc. It reports whether an existing memory entry
// served it. A fill compiles nothing of its own: it reads the cycles of
// the profiling run for the sequential options on mc (see
// core.ComputeProfile), an entry the compiles of the loop's plain variants
// share. Baselines persist in the disk tier, so a warm restart neither
// compiles nor profiles.
func (r *Runner) SeqCyclesContext(ctx context.Context, k *kernels.Kernel, mc sim.Config) (int64, bool, error) {
	opt := core.DefaultOptions(1)
	opt.UseProfile = false
	opt.Machine = &mc
	opt = core.CanonicalOptions(opt)
	v, hit, err := r.cache.Do(ctx, seqKind, artcache.Address(k.Digest(), opt), func(ctx context.Context) (any, error) {
		p, err := r.profile(ctx, k, opt)
		if err != nil {
			return nil, err
		}
		return p.cycles, nil
	})
	if err != nil {
		return 0, hit, err
	}
	return v.(int64), hit, nil
}

// Simulate resolves the result of running the artifact a, whose address
// ArtifactContext returned as addr, on cfg, and on the runner's engine
// when cfg names none. Results are memoized under
// sha256(core.CanonicalRun(cfg) ‖ 0 ‖ addr): a Result depends only on the
// artifact and the run levers, and every engine returns a bit-identical
// one, so the engine only picks what a miss runs on. A recorded run
// (cfg.Sink set) bypasses the memo, since its output is the event
// stream. hit reports whether an existing result served the call. The
// Result may be shared with other callers and must not be modified. The
// memo holds at most maxResults results; a new one past that evicts an
// arbitrary older one.
//
// Unlike a compile, a simulation fill runs under ctx: a requester that
// gives up aborts it within one cancellation stride, the aborted entry is
// evicted, and a concurrent requester whose own ctx is live simulates
// afresh.
func (r *Runner) Simulate(ctx context.Context, a *core.Artifact, addr string, cfg sim.Config) (res *sim.Result, hit bool, err error) {
	if cfg.Engine == "" {
		cfg.Engine = r.engine
	}
	if cfg.Sink != nil {
		res, err = a.RunContext(ctx, cfg)
		return res, false, err
	}
	// The engine is not part of the address, so an unknown one must fail
	// here rather than cache its error for every engine.
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	key, err := resultAddress(addr, cfg)
	if err != nil {
		return nil, false, err
	}
	v, hit, err := r.results.Do(ctx, runKind, key, func(ctx context.Context) (any, error) {
		return a.RunContext(ctx, cfg)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*sim.Result), hit, nil
}

// resultAddress is the memo address of running the artifact at addr on
// cfg.
func resultAddress(addr string, cfg sim.Config) (string, error) {
	var digest [32]byte
	if _, err := hex.Decode(digest[:], []byte(addr)); err != nil {
		return "", fmt.Errorf("experiments: artifact address %q: %w", addr, err)
	}
	return artcache.Address(digest, core.CanonicalRun(cfg)), nil
}

// Speedup runs a kernel variant (optionally overriding the machine config)
// and returns sequential-cycles / parallel-cycles plus the raw result,
// which Simulate may share with other callers.
func (r *Runner) Speedup(k *kernels.Kernel, v Variant, mod func(*sim.Config)) (float64, *sim.Result, *core.Artifact, error) {
	return r.speedup(context.Background(), k, v, mod)
}

// speedup is Speedup under ctx.
func (r *Runner) speedup(ctx context.Context, k *kernels.Kernel, v Variant, mod func(*sim.Config)) (float64, *sim.Result, *core.Artifact, error) {
	seq, _, err := r.SeqCyclesContext(ctx, k, sim.DefaultConfig(1))
	if err != nil {
		return 0, nil, nil, err
	}
	a, addr, _, err := r.ArtifactContext(ctx, k, v.Options())
	if err != nil {
		return 0, nil, nil, err
	}
	cfg := a.MachineConfig()
	if mod != nil {
		mod(&cfg)
	}
	res, _, err := r.Simulate(ctx, a, addr, cfg)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("experiments: run %s: %w", k.Name, err)
	}
	return float64(seq) / float64(res.Cycles), res, a, nil
}

// variantRows runs the loop Fig 14 and the Section III ablations share:
// every kernel at 4 cores under the default options and then under v, one
// worker item per kernel. row maps a kernel's two speedups and artifacts to
// its row; rows come back in kernel order.
func variantRows[R any](r *Runner, v Variant, row func(k *kernels.Kernel, base, alt float64, baseArt, altArt *core.Artifact) R) ([]R, error) {
	ks := kernels.All()
	rows := make([]R, len(ks))
	err := r.each(len(ks), func(i int) error {
		base, _, ab, err := r.Speedup(ks[i], Variant{Cores: 4}, nil)
		if err != nil {
			return err
		}
		alt, _, aa, err := r.Speedup(ks[i], v, nil)
		if err != nil {
			return err
		}
		rows[i] = row(ks[i], base, alt, ab, aa)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
