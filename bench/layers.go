package main

import (
	"runtime"
	"time"
)

// selfLayers are the layers whose self time the traced run reports, as a
// share of the operation's time so they add up to it. They are named after
// the package whose public call the span wraps; service.other is request
// latency the replayed layers do not account for (HTTP, admission,
// decoding), measured only on the service workloads.
var selfLayers = []string{
	"kernels", "frontend", "normalize", "speculate", "tac", "fiber", "deps",
	"profile", "codegraph", "search", "outline", "isa", "verify",
	"sim.precompile", "sim", "ir.address", "machspace", "service.encode", "service.other",
}

// layerMetric is one per-layer metric with its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in output order. Every traced
// run reports all of them; a layer a workload does not use reads 0.
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	for _, l := range selfLayers {
		out = append(out, layerMetric{l + ".pct", "%"})
	}
	return append(out, []layerMetric{
		{"trace.op_ms", "ms"},
		{"trace.ops", "count"},
		{"trace.coverage", "ratio"},
		{"trace.overhead", "ratio"},
		{"sim.runs", "count"},
		{"sim.mcycles_per_s", "Mcycles/s"},
		{"sim.burst.mcycles_per_s", "Mcycles/s"},
		{"sim.threaded.mcycles_per_s", "Mcycles/s"},
		{"sim.reference.mcycles_per_s", "Mcycles/s"},
		{"search.candidates", "count"},
		{"search.improved_share", "ratio"},
		{"ir.address_kb", "KB"},
		{"machspace.points", "count"},
		{"machspace.rejected", "count"},
		{"machspace.points_per_s", "1/s"},
		{"service.compile.pct", "%"},
		{"service.sim.pct", "%"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.repeat_share", "ratio"},
		{"service.compiles", "count"},
		{"service.rejected_429", "count"},
		{"service.swept_hit_ratio", "ratio"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"load.late.pct", "%"},
		{"load.conn_wait.pct", "%"},
	}...)
}()

// layerAgg accumulates the traced run. Each operation is replayed twice,
// untraced (a nil tracer) and traced, in alternating order; the traced
// replay's spans give the layer split and the pair gives the overhead.
type layerAgg struct {
	ops              int
	opTime           time.Duration // denominator of every .pct share
	self, incl       map[string]time.Duration
	counts           map[string]int64
	root, rootSelf   time.Duration
	traced, untraced time.Duration
	rates            map[string]*engineRate
	alloc            uint64
	gc               uint32
	// values holds metrics a workload computes itself (service and load
	// numbers); absent ones read 0.
	values map[string]float64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{
		self: map[string]time.Duration{}, incl: map[string]time.Duration{},
		counts: map[string]int64{}, rates: map[string]*engineRate{}, values: map[string]float64{},
	}
}

// measured is one operation's replay cost: the traced and untraced
// replay times and the allocation it did.
type measured struct {
	traced, untraced time.Duration
	alloc            uint64
	gc               uint32
}

// replayOp runs replay untraced and traced (order alternating with the
// operation index) and returns the spans' start index and the costs.
// replay receives nil for the untraced pass.
func (a *layerAgg) replayOp(t *tracer, replay func(*tracer) error) (from int, m measured, err error) {
	timed := func(tr *tracer) (time.Duration, error) {
		start := time.Now()
		err := replay(tr)
		return time.Since(start), err
	}
	runTraced := func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		from = len(t.spans)
		sp := t.begin("op")
		d, err := timed(t)
		t.end(sp)
		runtime.ReadMemStats(&after)
		m.traced, m.alloc, m.gc = d, after.TotalAlloc-before.TotalAlloc, after.NumGC-before.NumGC
		return err
	}
	t.op = a.ops
	if a.ops%2 == 0 {
		if err = runTraced(); err != nil {
			return from, m, err
		}
		m.untraced, err = timed(nil)
	} else {
		if m.untraced, err = timed(nil); err != nil {
			return from, m, err
		}
		err = runTraced()
	}
	return from, m, err
}

// addOp folds one traced operation into the totals and returns the time
// its layer spans covered. opTime is the operation's time as its user sees
// it: the traced replay itself, or for a service request its HTTP latency.
func (a *layerAgg) addOp(t *tracer, from int, m measured, opTime time.Duration) (covered time.Duration) {
	self, incl, counts, root, rootSelf := t.layerTimes(from)
	for k, v := range self {
		a.self[k] += v
	}
	for k, v := range incl {
		a.incl[k] += v
	}
	for k, v := range counts {
		a.counts[k] += v
	}
	a.ops++
	a.opTime += opTime
	a.root += root
	a.rootSelf += rootSelf
	a.traced += m.traced
	a.untraced += m.untraced
	a.alloc += m.alloc
	a.gc += m.gc
	return root - rootSelf
}

// emit adds every per-layer metric to r.
func (a *layerAgg) emit(r *result) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(a.ops)
	v := map[string]float64{}
	for k, x := range a.values {
		v[k] = x
	}
	for _, l := range selfLayers {
		if _, set := v[l+".pct"]; !set {
			v[l+".pct"] = 100 * ratio(float64(a.self[l]), float64(a.opTime))
		}
	}
	v["trace.op_ms"] = ratio(float64(a.opTime)/float64(time.Millisecond), ops)
	v["trace.ops"] = ops
	v["trace.coverage"] = 1 - ratio(float64(a.rootSelf), float64(a.root))
	v["trace.overhead"] = ratio(float64(a.traced), float64(a.untraced)) - 1
	v["sim.runs"] = ratio(float64(a.counts["sim.calls"]), ops)
	v["sim.mcycles_per_s"] = ratio(float64(a.counts["sim"])/1e6, a.self["sim"].Seconds())
	for e, rate := range a.rates {
		v["sim."+e+".mcycles_per_s"] = ratio(float64(rate.cycles)/1e6, rate.secs)
	}
	v["search.candidates"] = ratio(float64(a.counts["search"]), float64(a.counts["search.calls"]))
	v["search.improved_share"] = ratio(float64(a.counts["search.improved"]), float64(a.counts["search.calls"]))
	v["ir.address_kb"] = ratio(float64(a.counts["ir.address"])/1024, float64(a.counts["ir.address.calls"]))
	v["machspace.points"] = ratio(float64(a.counts["machspace"]), float64(a.counts["machspace.calls"]))
	v["machspace.rejected"] = ratio(float64(a.counts["machspace.rejected"]), float64(a.counts["machspace.calls"]))
	v["machspace.points_per_s"] = ratio(float64(a.counts["machspace"]), a.incl["machspace"].Seconds())
	v["runtime.alloc_mb"] = ratio(float64(a.alloc)/(1<<20), ops)
	v["runtime.gc_cycles"] = ratio(float64(a.gc), ops)
	for _, m := range layerMetrics {
		r.add(m.name, v[m.name], m.unit)
	}
}
