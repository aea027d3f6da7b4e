package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fgp/internal/core"
	"fgp/internal/frontend"
	"fgp/internal/fuzz"
	"fgp/internal/interp"
	"fgp/internal/kernels/tier2"
)

// compileTailQ: a run compiles several hundred sources, a quarter of them
// searched, so p90 lands well inside the searched ones, away from the
// boundary between the two kinds.
const compileTailQ = 0.9

// Search levers of compile-source: the server-side values fgpd uses.
const (
	searchBudget = 48
	searchSeed   = 1
)

// genConfig shapes generated loops: 20 trips, bodies larger than the
// generator's default.
var genConfig = fuzz.GenConfig{MaxStmts: 24, MaxDepth: 4}

type source struct {
	name string
	text []byte
}

// mix is splitmix64: distinct, well-spread generator seeds per (seed, i).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sourcePool is an endless, seeded sequence of distinct fgp sources. With
// fixed set, the six committed tier-2 kernels and the examples/source
// programs come first; the rest are generator loops drawn from the seed
// and rendered by frontend.Format. Generated loops the interpreter rejects
// are skipped and counted. A run builds the sources it expects to use in
// set-up; at draws more when a fast host gets past them, so no window is
// too long for the pool.
type sourcePool struct {
	seed     int64
	list     []source
	next     int // generator index of the next candidate loop
	seen     map[string]bool
	rejected int
}

func newSourcePool(seed int64, n int, fixed bool) (*sourcePool, error) {
	p := &sourcePool{seed: seed, seen: map[string]bool{}}
	if fixed {
		ks, err := tier2.All()
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			p.list = append(p.list, source{k.Name, k.Source})
		}
		root, err := repoRoot()
		if err != nil {
			return nil, err
		}
		paths, err := filepath.Glob(filepath.Join(root, "examples", "source", "*.fgp"))
		if err != nil || len(paths) == 0 {
			return nil, fmt.Errorf("no examples/source programs (%v)", err)
		}
		sort.Strings(paths)
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			p.list = append(p.list, source{filepath.Base(path), data})
		}
	}
	p.grow(n)
	return p, nil
}

// grow draws generator loops until the pool holds n sources.
func (p *sourcePool) grow(n int) {
	for len(p.list) < n {
		l := fuzz.Generate(mix(p.seed, p.next), genConfig)
		p.next++
		if p.seen[l.Name] {
			continue
		}
		p.seen[l.Name] = true
		if _, err := interp.Run(l); err != nil {
			p.rejected++
			continue
		}
		p.list = append(p.list, source{l.Name, []byte(frontend.Format(l))})
	}
}

// at is source i, drawn first if the pool is shorter.
func (p *sourcePool) at(i int) source {
	p.grow(i + 1)
	return p.list[i]
}

func searchOptions() core.Options {
	opt := core.DefaultOptions(4)
	opt.Partitioner = core.PartitionerSearch
	opt.SearchBudget, opt.SearchSeed = searchBudget, searchSeed
	return opt
}

// compileOptions is what compile-source compiles source i with: 2 and 4
// cores with the paper's heuristic, and every fourth source searched too.
func compileOptions(i int) []core.Options {
	opts := []core.Options{core.DefaultOptions(2), core.DefaultOptions(4)}
	if i%4 == 0 {
		opts = append(opts, searchOptions())
	}
	return opts
}

// compilePoolSize is how many sources compile-source builds in set-up; a
// 20-second window on the reference host uses about 800 of them.
func compilePoolSize(cfg runConfig) int { return max(16, int(2000*cfg.scale)) }

func runCompileSource(cfg runConfig) *result {
	r := &result{Workload: "compile-source", Host: fingerprint(cfg)}
	defer r.finish()
	n := compilePoolSize(cfg)
	var pool *sourcePool
	setupS, err := timeSetup(r, cfg.reps(), func() error {
		var err error
		pool, err = newSourcePool(cfg.seed, n, true)
		return err
	})
	if err != nil {
		r.Attempted++
		r.fail("%v", err)
		return r
	}
	var plain, searched []time.Duration
	from := readCPUTicks()
	ops, busy := serialLoop(r, cfg, compileTailQ, func(i int) (time.Duration, error) {
		src := pool.at(i)
		opts := compileOptions(i)
		start := time.Now()
		l, err := frontend.Parse(src.text)
		var arts []*core.Artifact
		for _, opt := range opts {
			if err != nil {
				break
			}
			var a *core.Artifact
			a, err = core.Compile(l, opt)
			arts = append(arts, a)
		}
		d := time.Since(start)
		if err != nil {
			return d, fmt.Errorf("%s: %w", src.name, err)
		}
		if len(opts) > 2 {
			searched = append(searched, d)
		} else {
			plain = append(plain, d)
		}
		return d, checkArtifacts(src.name, arts)
	})
	steal := stolen(from, readCPUTicks())
	r.note("%d sources built in set-up, %d used; %d generated loops rejected by the interpreter", n, len(ops), pool.rejected)
	r.endToEnd(steal, setupS, ops, compileTailQ, cfg.beyond(), perSecond(len(ops), busy))
	noteClass(r, "heuristic-only sources", plain)
	noteClass(r, "searched sources", searched)
	return r
}

// checkArtifacts verifies every artifact against the interpreter, and a
// searched one against its own heuristic baseline.
func checkArtifacts(name string, arts []*core.Artifact) error {
	for _, a := range arts {
		if _, err := a.Verify(a.MachineConfig()); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep := a.Report
		if rep.Partitioner == core.PartitionerSearch && rep.SearchCycles > rep.SearchBaselineCycles {
			return fmt.Errorf("%s: search ran %d cycles, worse than its %d-cycle seed", name, rep.SearchCycles, rep.SearchBaselineCycles)
		}
	}
	return nil
}

func noteClass(r *result, class string, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	s, _ := summarize(lats, 0.5, 0)
	r.note("%s: p50 %.3f ms over %d", class, s.P50Ms, s.N)
}

// replayCompile replays one compile-source operation and returns what it
// built, for the cross-check.
func replayCompile(t *tracer, src []byte, opts []core.Options) ([]replayed, error) {
	ctx := context.Background()
	sp := t.begin("frontend")
	l, err := frontend.Parse(src)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	var out []replayed
	for _, opt := range opts {
		b, err := compile(ctx, t, l, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, replayed{loop: l, opt: opt, b: b, cfg: b.machine})
	}
	return out, nil
}

// checkBuilt simulates each replayed artifact outside the operation, then
// cross-checks it against the library and re-simulates it on every engine.
func checkBuilt(rs []replayed, agg *layerAgg) error {
	for _, rp := range rs {
		res, image, err := simulate(context.Background(), nil, rp.b.loop, rp.b.programs, rp.cfg)
		if err := crossCheck(rp.loop, rp.opt, rp.cfg, err, res, image); err != nil {
			return err
		}
		if err != nil {
			return err
		}
		if err := resimulate(rp.b.loop, rp.b.programs, rp.cfg, agg.rates); err != nil {
			return err
		}
		if rp.b.improved {
			agg.counts["search.improved"]++
		}
	}
	return nil
}

func traceCompileSource(cfg runConfig) *result {
	r := &result{Workload: "compile-source", Host: fingerprint(cfg)}
	defer r.finish()
	pool, err := newSourcePool(cfg.seed, compilePoolSize(cfg), true)
	if err != nil {
		r.Attempted++
		r.fail("setup: %v", err)
		return r
	}
	agg, t := newLayerAgg(), newTracer()
	deadline := time.Now().Add(cfg.window())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		r.Attempted++
		src := pool.at(i)
		var rs []replayed
		from, m, err := agg.replayOp(t, func(tr *tracer) error {
			got, err := replayCompile(tr, src.text, compileOptions(i))
			if tr != nil {
				rs = got
			}
			return err
		})
		agg.addOp(t, from, m, m.traced)
		if err == nil {
			err = checkBuilt(rs, agg)
		}
		if err != nil {
			r.fail("%s: %v", src.name, err)
		}
	}
	return finishTrace(r, cfg, agg, t)
}
