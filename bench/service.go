package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"fgp/internal/core"
	"fgp/internal/frontend"
	"fgp/internal/machspace"
	"fgp/internal/service"
)

// Service workloads: an open loop at svcRate for three quarters of the
// window gives latency (timed from when each request was due), then a
// closed loop with one client per connection, over a fixed number of
// further requests, gives throughput.
const (
	svcRate  = 40 // requests per second
	svcTailQ = 0.9
	// Closed-loop requests per second of the window: the bursts take about
	// a quarter of it on the reference host.
	hotClosedPerSec  = 50
	coldClosedPerSec = 30
)

// svcRequest is one planned request. swept requests name the index of the
// frontier request whose surface they sample.
type svcRequest struct {
	class    string // hit, miss, frontier or swept
	path     string
	body     []byte
	run      service.RunRequest
	frontier int
}

// svcChecker checks request i's response; it may consult any other
// response of the run.
type svcChecker func(i int, req svcRequest, results map[int]exchange) error

func runRequest(class string, req service.RunRequest) svcRequest {
	body, _ := json.Marshal(req) // plain struct, cannot fail
	return svcRequest{class: class, path: "/v1/run", body: body, run: req}
}

// outcome tallies open-loop requests.
type outcome struct {
	lats               []time.Duration
	late, wait, latSum time.Duration
	byClass            map[string][]time.Duration
}

// openSegment is one open-loop stretch: plan[from:from+len(arr)].
type openSegment struct {
	from int
	arr  []arrival
}

// openPhase issues plan[from:from+n] open-loop, cut short at the plan's
// end, and adds each answered request's exchange to results.
func openPhase(srv *server, plan []svcRequest, from, n int, results map[int]exchange) openSegment {
	n = max(0, min(n, len(plan)-from))
	exs := make([]exchange, n)
	arr := openLoop(svcRate, n, maxOutstanding, func(i int) {
		req := plan[from+i]
		exs[i] = srv.post(req.path, req.body)
	})
	for i, a := range arr {
		if !a.dropped {
			results[from+i] = exs[i]
		}
	}
	return openSegment{from, arr}
}

// tally checks open-loop requests and folds the good ones' latencies, due
// to done; dropped arrivals, errors and wrong results are failures.
func (o *outcome) tally(r *result, plan []svcRequest, seg openSegment, results map[int]exchange, check svcChecker) {
	if o.byClass == nil {
		o.byClass = map[string][]time.Duration{}
	}
	for i, a := range seg.arr {
		r.Attempted++
		idx := seg.from + i
		req := plan[idx]
		if a.dropped {
			r.fail("request %d dropped: %d already outstanding", idx, maxOutstanding)
			continue
		}
		ex := results[idx]
		if err := ex.ok(); err != nil {
			r.fail("%s request %d: %v", req.class, idx, err)
			continue
		}
		if err := check(idx, req, results); err != nil {
			r.fail("%s request %d: %v", req.class, idx, err)
			continue
		}
		o.lats = append(o.lats, a.latency())
		o.byClass[req.class] = append(o.byClass[req.class], a.latency())
		o.late += a.late()
		o.wait += ex.connWait
		o.latSum += a.latency()
	}
}

// svcSegments splits a service run into rounds of an open-loop stretch
// and a closed-loop burst, so both kinds of load spread over the run and
// meet the host's slow and fast spells alike. Throughput is the median
// burst's rate: the first bursts of a fresh process can run at half the
// rate of the rest while its heap grows, and the median reads the rate the
// server keeps.
const svcSegments = 8

// svcSpec is what distinguishes the two service workloads' runs.
type svcSpec struct {
	// setup starts a fresh server and plans n requests.
	setup func(n int) (*server, []svcRequest, error)
	check svcChecker
	// closedPerSec is how many closed-loop requests the bursts send per
	// second of the window.
	closedPerSec float64
	// checkEvery thins the (expensive) output checks of the bursts; every
	// request is still checked for errors.
	checkEvery int
	// restart gives each round a fresh server, so the server's memory
	// grows with one round's misses rather than the whole run's.
	restart bool
}

// roundShare is round s's part of n requests, in whole blocks of four so
// no service-cold block straddles two rounds.
func roundShare(n, s int) int {
	blocks := (n + 3) / 4
	return 4 * (blocks*(s+1)/svcSegments - blocks*s/svcSegments)
}

// svcCounts is how many requests a service run sends: open loop, then
// closed-loop bursts of at least one service-cold block each, all in whole
// blocks. Both follow from the window, so the plan set-up makes is never
// too short.
func svcCounts(cfg runConfig, closedPerSec float64) (open, closed int) {
	blocks := func(n int) int { return (n + 3) / 4 * 4 }
	return blocks(max(int(svcRate*0.75*cfg.seconds), samplesFor(svcTailQ, cfg.beyond()))),
		blocks(max(int(closedPerSec*cfg.seconds), 4*svcSegments))
}

// serviceRun is the end-to-end run of a service workload. Latency comes
// from the open-loop stretches; throughput is the median over the
// closed-loop bursts.
func serviceRun(r *result, cfg runConfig, spec svcSpec) {
	var srv *server
	var plan []svcRequest
	nOpen, nClosed := svcCounts(cfg, spec.closedPerSec)
	setupS, err := timeSetup(r, cfg.reps(), func() error {
		if srv != nil {
			srv.close()
			srv = nil
		}
		var err error
		srv, plan, err = spec.setup(nOpen + nClosed)
		return err
	})
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	if err != nil {
		r.Attempted++
		r.fail("%v", err)
		return
	}
	results := map[int]exchange{}
	var segs []openSegment
	var closedIdx []int
	var rates []float64
	var hits, lookups int64
	next := 0
	from := readCPUTicks()
	for s := 0; s < svcSegments; s++ {
		if spec.restart && s > 0 {
			srv.close()
			if srv, err = startServer(); err != nil {
				r.Attempted++
				r.fail("restarting the server: %v", err)
				return
			}
		}
		before := srv.svc.Snapshot()
		n := roundShare(nOpen, s)
		segs = append(segs, openPhase(srv, plan, next, n, results))
		next += n

		var closed exchanges
		base := next
		sent, elapsed := closedLoop(clientConns, roundShare(nClosed, s), func(j int) bool {
			if base+j >= len(plan) {
				return false
			}
			req := plan[base+j]
			closed.put(base+j, srv.post(req.path, req.body))
			return true
		})
		next += sent
		for i, ex := range closed.m {
			results[i] = ex
			closedIdx = append(closedIdx, i)
		}
		after := srv.svc.Snapshot()
		hits += after.Cache.Hits - before.Cache.Hits
		lookups += after.Cache.Hits + after.Cache.Misses - before.Cache.Hits - before.Cache.Misses
		rates = append(rates, perSecond(sent, elapsed))
	}
	steal := stolen(from, readCPUTicks())

	var o outcome
	for _, seg := range segs {
		o.tally(r, plan, seg, results, spec.check)
	}
	for _, i := range closedIdx {
		r.Attempted++
		req := plan[i]
		if err := results[i].ok(); err != nil {
			r.fail("%s request %d: %v", req.class, i, err)
		} else if i%spec.checkEvery == 0 {
			if err := spec.check(i, req, results); err != nil {
				r.fail("%s request %d: %v", req.class, i, err)
			}
		}
	}
	r.endToEnd(steal, setupS, o.lats, svcTailQ, cfg.beyond(), median(rates))
	n := time.Duration(max(1, len(o.lats)))
	r.note("open loop: %d requests at %d/s in %d stretches, generator late %.3f ms and connection wait %.3f ms on average; %d of %d cache lookups hit",
		nOpen, svcRate, svcSegments, ms(o.late/n), ms(o.wait/n), hits, lookups)
	for _, class := range []string{"hit", "miss", "frontier", "swept"} {
		if lats := o.byClass[class]; len(lats) > 0 {
			s, _ := summarize(lats, 0.5, 0)
			r.note("%s wall-clock p50 %.3f ms over %d", class, s.P50Ms, s.N)
		}
	}
	r.note("closed loop: %d clients, %d bursts, %d requests, outputs of one in %d checked; ops_per_s is the median of %.1f req/s (wall clock)",
		clientConns, svcSegments, len(closedIdx), spec.checkEvery, rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func hitRatio(before, after service.Metrics) float64 {
	hits := after.Cache.Hits - before.Cache.Hits
	total := hits + after.Cache.Misses - before.Cache.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// --- service-hot ---

type hotPair struct {
	kernel string
	cores  int
}

// hotPairs is every (kernel, cores) pair of the paper's kernels at 2 and 4
// cores, cut down under -scale.
func hotPairs(scale float64) []hotPair {
	var ps []hotPair
	for _, k := range scaledKernels(scale) {
		ps = append(ps, hotPair{k.Name, 2}, hotPair{k.Name, 4})
	}
	return ps
}

// hotPlan is n requests visiting the pairs in rounds, each round a seeded
// permutation, so every pair is requested equally often.
func hotPlan(seed int64, pairs []hotPair, n int) []svcRequest {
	var plan []svcRequest
	for round := 0; len(plan) < n; round++ {
		for _, j := range rand.New(rand.NewSource(int64(mix(seed, round)))).Perm(len(pairs)) {
			p := pairs[j]
			plan = append(plan, runRequest("hit", service.RunRequest{Kernel: p.kernel, Cores: p.cores}))
		}
	}
	return plan[:n]
}

// checkHot requires a response's cycles to match the golden table.
func checkHot(golden map[string]int64) svcChecker {
	return func(i int, req svcRequest, results map[int]exchange) error {
		var got service.RunResponse
		if err := json.Unmarshal(results[i].body, &got); err != nil {
			return err
		}
		k, c := req.run.Kernel, req.run.Cores
		if want := golden[goldenKey(k, c, false)]; got.Cycles != want {
			return fmt.Errorf("%s at %d cores: %d cycles, golden %d", k, c, got.Cycles, want)
		}
		if want := golden[k+"/seq"]; got.SeqCycles != want {
			return fmt.Errorf("%s: %d sequential cycles, golden %d", k, got.SeqCycles, want)
		}
		return nil
	}
}

// hotSetup starts a server, primes every pair, checking each answer, and
// plans n requests.
func hotSetup(cfg runConfig, golden map[string]int64, n int) (*server, []svcRequest, error) {
	srv, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	check := checkHot(golden)
	for _, p := range hotPairs(cfg.scale) {
		req := runRequest("hit", service.RunRequest{Kernel: p.kernel, Cores: p.cores})
		ex := srv.post(req.path, req.body)
		err := ex.ok()
		if err == nil {
			err = check(0, req, map[int]exchange{0: ex})
		}
		var got service.RunResponse
		if err == nil {
			err = json.Unmarshal(ex.body, &got)
		}
		if err != nil {
			srv.close()
			return nil, nil, fmt.Errorf("priming %s at %d cores: %w", p.kernel, p.cores, err)
		}
		srv.primed[got.ArtifactAddress] = true
	}
	return srv, hotPlan(cfg.seed, hotPairs(cfg.scale), n), nil
}

func runServiceHot(cfg runConfig) *result {
	r := &result{Workload: "service-hot", Host: fingerprint(cfg)}
	defer r.finish()
	golden, err := loadGolden()
	if err != nil {
		r.Attempted++
		r.fail("%v", err)
		return r
	}
	serviceRun(r, cfg, svcSpec{
		setup:        func(n int) (*server, []svcRequest, error) { return hotSetup(cfg, golden, n) },
		check:        checkHot(golden),
		closedPerSec: hotClosedPerSec,
		checkEvery:   1,
	})
	return r
}

// --- service-cold ---

// coldGrid is the frontier grid: 12 points.
var coldGrid = machspace.Grid{Cores: []int{2, 4}, QueueLen: []int{4, sweptQueueLen}, TransferLatency: []int64{1, 5, 20}}

const sweptQueueLen = 20

// coldPlan is at least n requests in blocks of four, three sources of the
// pool each: two misses, one frontier sweep and one run of a point of that
// sweep's grid (swept) at the paper's queue length, in a seeded order with
// the sweep first. Every source is new to the server except the swept one,
// which its block's sweep just compiled.
func coldPlan(seed int64, pool *sourcePool, n int) []svcRequest {
	rng := rand.New(rand.NewSource(seed))
	var plan []svcRequest
	for next := 0; len(plan) < n; next += 3 {
		classes := []string{"miss", "miss", "frontier", "swept"}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		fi, si := indexOf(classes, "frontier"), indexOf(classes, "swept")
		if si < fi {
			classes[fi], classes[si] = "swept", "frontier"
			fi = si
		}
		base := len(plan)
		front := string(pool.at(next + 2).text)
		misses := 0
		for _, class := range classes {
			switch class {
			case "miss":
				src := string(pool.at(next + misses).text)
				misses++
				plan = append(plan, runRequest(class, service.RunRequest{Source: src, Cores: 2 + 2*rng.Intn(2)}))
			case "frontier":
				body, _ := json.Marshal(service.FrontierRequest{Source: front, Grid: &coldGrid})
				plan = append(plan, svcRequest{class: class, path: "/v1/frontier", body: body, run: service.RunRequest{Source: front}})
			case "swept":
				// Swept points keep the paper's queue: a short queue can be
				// a machine the verifier rejects for this loop, and the
				// workload must not fail by construction.
				q := sweptQueueLen
				lat := coldGrid.TransferLatency[rng.Intn(len(coldGrid.TransferLatency))]
				req := runRequest(class, service.RunRequest{Source: front, Cores: coldGrid.Cores[rng.Intn(len(coldGrid.Cores))],
					QueueLen: &q, TransferLatency: &lat})
				req.frontier = base + fi
				plan = append(plan, req)
			}
		}
	}
	return plan
}

func indexOf(xs []string, x string) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

// coldSeed separates service-cold's generator stream from compile-source's.
func coldSeed(seed int64) int64 { return seed ^ 0x5eed_c01d }

// coldSetup plans n requests on sources drawn for them and starts a server.
func coldSetup(cfg runConfig, n int) (*server, []svcRequest, error) {
	pool, err := newSourcePool(coldSeed(cfg.seed), 0, false)
	if err != nil {
		return nil, nil, err
	}
	plan := coldPlan(cfg.seed, pool, n)
	srv, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	return srv, plan, nil
}

// libraryRun compiles a request's source with the library at the request's
// levers, verifies the artifact against the interpreter, and returns its
// cycles and the sequential baseline's.
func libraryRun(req service.RunRequest) (cycles, seq int64, err error) {
	l, err := frontend.ParseWithLimits([]byte(req.Source), serviceLimits)
	if err != nil {
		return 0, 0, err
	}
	q, lat := 20, int64(5)
	if req.QueueLen != nil {
		q = *req.QueueLen
	}
	if req.TransferLatency != nil {
		lat = *req.TransferLatency
	}
	a, err := core.Compile(l, runOptions(req.Cores, q, lat))
	if err != nil {
		return 0, 0, err
	}
	res, err := a.Verify(a.MachineConfig())
	if err != nil {
		return 0, 0, err
	}
	s, err := core.CompileSequential(l)
	if err != nil {
		return 0, 0, err
	}
	sres, err := s.Run(s.MachineConfig())
	if err != nil {
		return 0, 0, err
	}
	return res.Cycles, sres.Cycles, nil
}

// checkCold checks a run response against the library and, for a swept
// point on its sweep's frontier, against the frontier's numbers; a
// frontier response must cover the whole grid.
func checkCold(i int, req svcRequest, results map[int]exchange) error {
	if req.class == "frontier" {
		var got service.FrontierResponse
		if err := json.Unmarshal(results[i].body, &got); err != nil {
			return err
		}
		if got.Points != coldGrid.Size() || got.Rejected >= got.Points || len(got.Frontier) == 0 {
			return fmt.Errorf("surface of %d points (%d rejected) with a %d-point frontier, want %d points",
				got.Points, got.Rejected, len(got.Frontier), coldGrid.Size())
		}
		return nil
	}
	var got service.RunResponse
	if err := json.Unmarshal(results[i].body, &got); err != nil {
		return err
	}
	cycles, seq, err := libraryRun(req.run)
	if err != nil {
		return fmt.Errorf("library: %w", err)
	}
	if got.Cycles != cycles || got.SeqCycles != seq {
		return fmt.Errorf("service ran %d/%d cycles (parallel/sequential), library %d/%d", got.Cycles, got.SeqCycles, cycles, seq)
	}
	if req.class != "swept" {
		return nil
	}
	fex, ok := results[req.frontier]
	var front service.FrontierResponse
	if !ok || fex.ok() != nil || json.Unmarshal(fex.body, &front) != nil {
		return nil // the sweep itself is checked (or counted failed) on its own
	}
	for _, p := range front.Frontier {
		c := p.Point
		if c.Cores == req.run.Cores && c.QueueLen == *req.run.QueueLen && c.TransferLatency == *req.run.TransferLatency &&
			p.Cycles != got.Cycles {
			return fmt.Errorf("swept point %s: /v1/run %d cycles, /v1/frontier %d", c, got.Cycles, p.Cycles)
		}
	}
	return nil
}

func runServiceCold(cfg runConfig) *result {
	r := &result{Workload: "service-cold", Host: fingerprint(cfg)}
	defer r.finish()
	serviceRun(r, cfg, svcSpec{
		setup:        func(n int) (*server, []svcRequest, error) { return coldSetup(cfg, n) },
		check:        checkCold,
		closedPerSec: coldClosedPerSec,
		checkEvery:   4,
		restart:      true,
	})
	return r
}

// --- traced runs ---

// traceCounts is how many requests a traced service run sends at most: an
// open loop over half the window, then one request at a time for the other
// half, never faster than the open loop's rate.
func traceCounts(cfg runConfig) (open, serial int) {
	half := int(svcRate*0.5*cfg.seconds) / 4 * 4 // whole blocks of service-cold
	return max(4, half), max(4, half)
}

func traceRequests(cfg runConfig) int {
	open, serial := traceCounts(cfg)
	return open + serial
}

// serviceTrace is the traced run of a service workload. Its first half
// repeats the open loop to measure the load generator and the server's
// counters; its second half sends the following requests one at a time
// and replays each through the layers, with the request's HTTP latency as
// the operation time.
func serviceTrace(r *result, cfg runConfig, srv *server, plan []svcRequest, check svcChecker, c *replayCache) {
	agg, t := newLayerAgg(), newTracer()
	nA, _ := traceCounts(cfg)
	before := srv.svc.Snapshot()
	results := map[int]exchange{}
	seg := openPhase(srv, plan, 0, nA, results)
	after := srv.svc.Snapshot()
	var o outcome
	o.tally(r, plan, seg, results, check)
	arr := seg.arr

	seen := map[string]bool{}
	for a := range srv.primed {
		seen[a] = true
	}
	var runs, repeats, swept, sweptHits int
	var compileMs, simMs, runLatency float64
	for i := range arr {
		req := plan[i]
		var got service.RunResponse
		if req.path != "/v1/run" || results[i].ok() != nil || json.Unmarshal(results[i].body, &got) != nil {
			continue
		}
		runs++
		if seen[got.ArtifactAddress] {
			repeats++
		}
		seen[got.ArtifactAddress] = true
		if req.class == "swept" {
			swept++
			if got.CachedArtifact {
				sweptHits++
			}
		}
		compileMs += got.CompileMs
		simMs += got.SimMs
		runLatency += ms(arr[i].latency())
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	agg.values["load.late.pct"] = 100 * ratio(float64(o.late), float64(o.latSum))
	agg.values["load.conn_wait.pct"] = 100 * ratio(float64(o.wait), float64(o.latSum))
	agg.values["service.compile.pct"] = 100 * ratio(compileMs, runLatency)
	agg.values["service.sim.pct"] = 100 * ratio(simMs, runLatency)
	agg.values["service.cache_hit_ratio"] = hitRatio(before, after)
	agg.values["service.repeat_share"] = ratio(float64(repeats), float64(runs))
	agg.values["service.swept_hit_ratio"] = ratio(float64(sweptHits), float64(swept))
	agg.values["service.compiles"] = ratio(float64(after.Artifacts.Compiles-before.Artifacts.Compiles), float64(len(arr)))
	agg.values["service.rejected_429"] = float64(after.Rejected - before.Rejected)

	deadline := time.Now().Add(cfg.window() / 2)
	for i := nA; i < len(plan) && (i == nA || time.Now().Before(deadline)); i++ {
		req := plan[i]
		r.Attempted++
		start := time.Now()
		ex := srv.post(req.path, req.body)
		latency := time.Since(start)
		if err := ex.ok(); err != nil {
			r.fail("%s request %d: %v", req.class, i, err)
			continue
		}
		if err := check(i, req, map[int]exchange{i: ex}); err != nil {
			r.fail("%s request %d: %v", req.class, i, err)
			continue
		}
		if err := replayRequest(t, agg, c, req, ex, latency); err != nil {
			r.fail("%s request %d: %v", req.class, i, err)
		}
	}
	finishTrace(r, cfg, agg, t)
}

// replayRequest replays one request untraced and traced against a child of
// the replay cache, cross-checks the replay, and folds it into agg.
func replayRequest(t *tracer, agg *layerAgg, c *replayCache, req svcRequest, ex exchange, latency time.Duration) error {
	var child *replayCache
	var rr *runReplay
	var surf *machspace.Surface
	from, m, err := agg.replayOp(t, func(tr *tracer) error {
		child = newReplayCache(c)
		var err error
		if req.class == "frontier" {
			surf, err = replayFrontier(tr, child, req.run.Source, coldGrid)
		} else {
			rr, err = replayRun(tr, child, req.run)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if covered := agg.addOp(t, from, m, latency); latency > covered {
		agg.self["service.other"] += latency - covered
	}
	if req.class == "frontier" {
		var got service.FrontierResponse
		if err := json.Unmarshal(ex.body, &got); err != nil {
			return err
		}
		if len(child.surf) > 0 {
			agg.counts["machspace.rejected"] += int64(surf.Rejected())
		}
		if err := checkSurface(req.run.Source, surf, got); err != nil {
			return err
		}
	} else {
		var got service.RunResponse
		if err := json.Unmarshal(ex.body, &got); err != nil {
			return err
		}
		if err := checkRunReplay(rr, got); err != nil {
			return err
		}
		b, _ := child.lookupArt(rr.resp.ArtifactAddress)
		if err := resimulate(b.loop, b.programs, b.machine, agg.rates); err != nil {
			return err
		}
	}
	child.commit()
	return nil
}

func traceServiceHot(cfg runConfig) *result {
	r := &result{Workload: "service-hot", Host: fingerprint(cfg)}
	defer r.finish()
	golden, err := loadGolden()
	var srv *server
	var plan []svcRequest
	if err == nil {
		srv, plan, err = hotSetup(cfg, golden, traceRequests(cfg))
	}
	if err != nil {
		r.Attempted++
		r.fail("setup: %v", err)
		return r
	}
	defer srv.close()
	// The replay cache starts where the server's does: every pair compiled.
	c := newReplayCache(nil)
	for _, p := range hotPairs(cfg.scale) {
		if _, err := replayRun(nil, c, service.RunRequest{Kernel: p.kernel, Cores: p.cores}); err != nil {
			r.Attempted++
			r.fail("priming the replay: %v", err)
			return r
		}
	}
	serviceTrace(r, cfg, srv, plan, checkHot(golden), c)
	return r
}

func traceServiceCold(cfg runConfig) *result {
	r := &result{Workload: "service-cold", Host: fingerprint(cfg)}
	defer r.finish()
	srv, plan, err := coldSetup(cfg, traceRequests(cfg))
	if err != nil {
		r.Attempted++
		r.fail("setup: %v", err)
		return r
	}
	defer srv.close()
	serviceTrace(r, cfg, srv, plan, checkCold, newReplayCache(nil))
	return r
}
