package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/machspace"
	"fgp/internal/profile"
	"fgp/internal/service"
	"fgp/internal/sim"
)

// The service replay makes the calls fgpd's handlers make for a request —
// resolve the loop, content-address it, compile on a cache miss, simulate,
// encode the response — each under its layer's span, with the replay's
// own cache standing in for the server's.

// serviceLimits are the parser limits fgpd applies to request sources.
var serviceLimits = frontend.Limits{MaxDepth: 64, MaxNodes: 200_000, MaxDiags: 20}

// replayCache holds what the replay has compiled, by content address. An
// operation replays against a child cache, so its untraced and traced
// passes both see the cache as it was before the operation; the traced
// pass's child is committed afterwards.
type replayCache struct {
	parent *replayCache
	seq    map[string]int64
	art    map[string]*built
	surf   map[string]*machspace.Surface
}

func newReplayCache(parent *replayCache) *replayCache {
	return &replayCache{parent: parent, seq: map[string]int64{}, art: map[string]*built{}, surf: map[string]*machspace.Surface{}}
}

func (c *replayCache) lookupSeq(k string) (int64, bool) {
	for ; c != nil; c = c.parent {
		if v, ok := c.seq[k]; ok {
			return v, true
		}
	}
	return 0, false
}

func (c *replayCache) lookupArt(k string) (*built, bool) {
	for ; c != nil; c = c.parent {
		if v, ok := c.art[k]; ok {
			return v, true
		}
	}
	return nil, false
}

func (c *replayCache) lookupSurf(k string) (*machspace.Surface, bool) {
	for ; c != nil; c = c.parent {
		if v, ok := c.surf[k]; ok {
			return v, true
		}
	}
	return nil, false
}

// commit moves a child's entries into its parent.
func (c *replayCache) commit() {
	for k, v := range c.seq {
		c.parent.seq[k] = v
	}
	for k, v := range c.art {
		c.parent.art[k] = v
	}
	for k, v := range c.surf {
		c.parent.surf[k] = v
	}
}

// addressKey mirrors the pipeline key fgpd hashes with the loop bytes.
type addressKey struct {
	Cores           int    `json:"cores"`
	QueueLen        int    `json:"queue_len"`
	TransferLatency int64  `json:"transfer_latency"`
	Speculate       bool   `json:"speculate"`
	NormalizeOps    int    `json:"normalize_ops"`
	Schedule        bool   `json:"schedule"`
	Sequential      bool   `json:"sequential"`
	Partitioner     string `json:"partitioner"`
}

func address(key any, loopBytes []byte) string {
	h := sha256.New()
	k, _ := json.Marshal(key) // fixed structs, cannot fail
	h.Write(k)
	h.Write([]byte{0})
	h.Write(loopBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// resolve replays the handler's loop resolution: a named kernel is built,
// a source is parsed.
func resolve(t *tracer, kernel, source string) (*ir.Loop, error) {
	if kernel != "" {
		k, err := kernels.ByName(kernel)
		if err != nil {
			return nil, err
		}
		return build(t, k), nil
	}
	sp := t.begin("frontend")
	defer t.end(sp)
	return frontend.ParseWithLimits([]byte(source), serviceLimits)
}

// runOptions are the compiler options fgpd uses for a /v1/run request.
func runOptions(cores, queueLen int, latency int64) core.Options {
	opt := core.DefaultOptions(cores)
	mc := sim.DefaultConfig(cores)
	mc.QueueLen, mc.TransferLatency = queueLen, latency
	opt.Machine = &mc
	return opt
}

func seqOptions() core.Options {
	opt := core.DefaultOptions(1)
	opt.UseProfile = false
	return opt
}

// runReplay is what a replayed /v1/run produced, for the cross-check.
type runReplay struct {
	loop     *ir.Loop
	opt      core.Options
	compiled *built // set when the replay compiled the artifact
	resp     service.RunResponse
}

// replayRun replays POST /v1/run for a heuristic-partitioned request.
func replayRun(t *tracer, c *replayCache, req service.RunRequest) (*runReplay, error) {
	ctx := context.Background()
	l, err := resolve(t, req.Kernel, req.Source)
	if err != nil {
		return nil, err
	}
	cores := req.Cores
	if cores == 0 {
		cores = 4
	}
	def := sim.DefaultConfig(cores)
	queueLen, latency := def.QueueLen, def.TransferLatency
	if req.QueueLen != nil && *req.QueueLen != 0 {
		queueLen = *req.QueueLen
	}
	if req.TransferLatency != nil {
		latency = *req.TransferLatency
	}
	sp := t.begin("ir.address")
	loopBytes, err := ir.MarshalLoop(l)
	seqAddr := address(addressKey{Sequential: true}, loopBytes)
	artAddr := address(addressKey{Cores: cores, QueueLen: queueLen, TransferLatency: latency}, loopBytes)
	t.count(sp, int64(len(loopBytes)))
	t.end(sp)
	if err != nil {
		return nil, err
	}
	rr := &runReplay{loop: l, opt: runOptions(cores, queueLen, latency)}
	seqCycles, ok := c.lookupSeq(seqAddr)
	if !ok {
		b, err := compile(ctx, t, l, seqOptions())
		if err != nil {
			return nil, err
		}
		res, _, err := simulate(ctx, t, b.loop, b.programs, b.machine)
		if err != nil {
			return nil, err
		}
		seqCycles = res.Cycles
		c.seq[seqAddr] = seqCycles
	}
	b, hit := c.lookupArt(artAddr)
	if !hit {
		if b, err = compile(ctx, t, l, rr.opt); err != nil {
			return nil, err
		}
		c.art[artAddr] = b
		rr.compiled = b
	}
	res, _, err := simulate(ctx, t, b.loop, b.programs, b.machine)
	if err != nil {
		return nil, err
	}
	rr.resp = service.RunResponse{
		Kernel: l.Name, Cores: cores, Cycles: res.Cycles, SeqCycles: seqCycles,
		Speedup: float64(seqCycles) / float64(res.Cycles), PerCoreCycles: res.PerCoreCycles,
		EnqStalls: res.EnqStalls, DeqStalls: res.DeqStalls, Transfers: res.Transfers, PairsUsed: res.PairsUsed,
		LoadHits: res.LoadHits, LoadMisses: res.LoadMisses, MemPortBusyCycles: res.MemPortBusyCycles,
		CachedArtifact: hit, ArtifactAddress: artAddr,
	}
	sp = t.begin("service.encode")
	_, err = json.Marshal(&rr.resp)
	t.end(sp)
	return rr, err
}

// checkRunReplay requires the replay to agree with the server's response
// and, when the replay compiled, with the library.
func checkRunReplay(rr *runReplay, got service.RunResponse) error {
	if rr.resp.Cycles != got.Cycles || rr.resp.SeqCycles != got.SeqCycles {
		return fmt.Errorf("%s: replay ran %d/%d cycles (parallel/sequential), server %d/%d",
			rr.loop.Name, rr.resp.Cycles, rr.resp.SeqCycles, got.Cycles, got.SeqCycles)
	}
	if rr.compiled == nil {
		return nil
	}
	res, image, err := simulate(context.Background(), nil, rr.compiled.loop, rr.compiled.programs, rr.compiled.machine)
	return crossCheck(rr.loop, rr.opt, rr.compiled.machine, err, res, image)
}

// replayFrontier replays POST /v1/frontier: the surface is swept the way
// machspace.Sweep does it on a fresh runner — one artifact per (cores,
// queue) cell, one profile per queue length, one sequential baseline —
// and reduced to its Pareto frontier.
func replayFrontier(t *tracer, c *replayCache, source string, grid machspace.Grid) (*machspace.Surface, error) {
	ctx := context.Background()
	l, err := resolve(t, "", source)
	if err != nil {
		return nil, err
	}
	ng, err := grid.Normalize(0)
	if err != nil {
		return nil, err
	}
	sp := t.begin("ir.address")
	loopBytes, err := ir.MarshalLoop(l)
	addr := address(struct {
		V    string         `json:"v"`
		Grid machspace.Grid `json:"grid"`
	}{"frontier1", ng}, loopBytes)
	t.count(sp, int64(len(loopBytes)))
	t.end(sp)
	if err != nil {
		return nil, err
	}
	surf, hit := c.lookupSurf(addr)
	msp := t.begin("machspace")
	if !hit {
		if surf, err = sweep(ctx, t, l, ng); err != nil {
			t.end(msp)
			return nil, err
		}
		c.surf[addr] = surf
		t.count(msp, int64(len(surf.Points)))
	}
	frontier := surf.Pareto()
	t.end(msp)
	resp := service.FrontierResponse{Kernel: surf.Kernel, Grid: surf.Grid, Points: len(surf.Points),
		Rejected: surf.Rejected(), SurfaceAddress: addr, CachedSurface: hit, Frontier: frontier}
	sp = t.begin("service.encode")
	_, err = json.Marshal(&resp)
	t.end(sp)
	return surf, err
}

func sweep(ctx context.Context, t *tracer, l *ir.Loop, g machspace.Grid) (*machspace.Surface, error) {
	pts := g.Points()
	surf := &machspace.Surface{Kernel: l.Name, Grid: g, Points: make([]machspace.PointResult, len(pts))}
	seq, err := compile(ctx, t, l, seqOptions())
	if err != nil {
		return nil, err
	}
	type cell struct {
		b   *built
		err error
	}
	cells := map[[2]int]cell{}
	profs := map[int]profile.Profile{}
	seqCycles := map[[3]int64]int64{}
	for i, p := range pts {
		out := &surf.Points[i]
		out.Point, out.HWCost = p, p.HWCost()
		if err := p.Validate(); err != nil {
			out.Reject = err.Error()
			continue
		}
		key := [2]int{p.Cores, p.QueueLen}
		cl, ok := cells[key]
		if !ok {
			opt := variantOptions(experiments.Variant{Cores: p.Cores, QueueLen: p.QueueLen})
			prof, ok := profs[p.QueueLen]
			if !ok {
				prof, cl.err = computeProfile(ctx, t, l, opt)
				if cl.err == nil {
					profs[p.QueueLen] = prof
				}
			}
			if cl.err == nil {
				opt.Profile = prof
				cl.b, cl.err = compile(ctx, t, l, opt)
			}
			cells[key] = cl
		}
		if cl.err != nil {
			out.Reject = cl.err.Error()
			continue
		}
		cfg := cl.b.machine
		cfg.TransferLatency, cfg.Cost.Enq, cfg.Cost.Deq = p.TransferLatency, p.EnqCost, p.DeqCost
		cfg.Cache.Lines, cfg.Cost.L1Hit, cfg.Cost.L1Miss = p.L1Lines, p.L1Hit, p.L1Miss
		res, _, err := simulate(ctx, t, cl.b.loop, cl.b.programs, cfg)
		if err != nil {
			out.Reject = err.Error()
			continue
		}
		sk := [3]int64{int64(p.L1Lines), p.L1Hit, p.L1Miss}
		sc, ok := seqCycles[sk]
		if !ok {
			scfg := seq.machine
			scfg.Cache.Lines, scfg.Cost.L1Hit, scfg.Cost.L1Miss = p.L1Lines, p.L1Hit, p.L1Miss
			sres, _, err := simulate(ctx, t, seq.loop, seq.programs, scfg)
			if err != nil {
				return nil, fmt.Errorf("sequential baseline: %w", err)
			}
			sc = sres.Cycles
			seqCycles[sk] = sc
		}
		out.Cycles, out.SeqCycles, out.Speedup = res.Cycles, sc, float64(sc)/float64(res.Cycles)
	}
	return surf, nil
}

// checkSurface requires a replayed surface to match machspace.Sweep's and
// its frontier to match the server's.
func checkSurface(source string, surf *machspace.Surface, got service.FrontierResponse) error {
	l, err := frontend.ParseWithLimits([]byte(source), serviceLimits)
	if err != nil {
		return err
	}
	k := kernels.Wrap(l.Name, func() *ir.Loop { return l })
	want, err := machspace.Sweep(context.Background(), experiments.NewRunner(), k, surf.Grid, machspace.Options{Workers: 1})
	if err != nil {
		return err
	}
	for i, p := range want.Points {
		q := surf.Points[i]
		if p.Cycles != q.Cycles || p.SeqCycles != q.SeqCycles || p.OK() != q.OK() {
			return fmt.Errorf("%s %s: replay %d/%d cycles, machspace %d/%d", l.Name, p.Point, q.Cycles, q.SeqCycles, p.Cycles, p.SeqCycles)
		}
	}
	front := surf.Pareto()
	if len(front) != len(got.Frontier) {
		return fmt.Errorf("%s: replay frontier has %d points, server %d", l.Name, len(front), len(got.Frontier))
	}
	for i := range front {
		if front[i].Point != got.Frontier[i].Point || front[i].Cycles != got.Frontier[i].Cycles {
			return fmt.Errorf("%s: frontier point %d differs: replay %+v, server %+v", l.Name, i, front[i], got.Frontier[i])
		}
	}
	return nil
}
