// Request counters and the latency reservoir behind /metrics.
//
// Both are sharded: under sustained offered load (cmd/fgpload drives tens
// of thousands of requests per second through an in-process server) every
// request touches these paths, and a single atomic word — let alone a
// single mutex — becomes a coherence hot spot that shows up in the soak
// profile. The cure is McKenney's statistical ("scalable") counter: per-
// shard counts on their own cache lines, incremented mostly-locally and
// summed only when /metrics reads them. Reads are approximate under
// concurrent writes but monotonic across snapshots: each shard is read in
// the same order every time, and each shard only grows.

package service

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counterShards is a power of two so the shard pick compiles to a mask.
const counterShards = 16

// padded is an atomic counter alone on its cache line, so neighboring
// shards do not false-share.
type padded struct {
	n atomic.Int64
	_ [56]byte
}

// counter is a sharded monotonic counter. Add picks a shard with the
// runtime's per-P fastrand (no shared state on the increment path); Load
// sums the shards.
type counter struct {
	shards [counterShards]padded
}

func (c *counter) Add(delta int64) {
	c.shards[rand.Uint32N(counterShards)].n.Add(delta)
}

func (c *counter) Load() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

type metrics struct {
	requests counter // everything that passed the draining gate
	rejected counter // shed with 429 (queue full)
	canceled counter // client gone or deadline passed mid-request
	errors   counter // 4xx/5xx from validation, compile, or simulate
	batches  counter // /v1/batch requests admitted
	items    counter // batch items executed (all outcomes)

	lat latencyReservoir
}

// latShards shards the reservoir's mutex; latencyWindow is the total
// sample count quantiles are computed over (p999 needs a few thousand).
const (
	latShards      = 16
	latencyWindow  = 4096
	latShardWindow = latencyWindow / latShards
)

type latShard struct {
	mu    sync.Mutex
	buf   [latShardWindow]time.Duration
	next  int
	total int64
	_     [32]byte
}

// latencyReservoir keeps the last ~latencyWindow request durations across
// latShards independently locked rings. Quantiles are computed on demand
// from a sorted merge — /metrics is low-rate, requests are not, so the
// observe path stays O(1) and contends only 1/latShards of the time.
type latencyReservoir struct {
	shards [latShards]latShard
}

func (r *latencyReservoir) observe(d time.Duration) {
	sh := &r.shards[rand.Uint32N(latShards)]
	sh.mu.Lock()
	sh.buf[sh.next] = d
	sh.next = (sh.next + 1) % latShardWindow
	sh.total++
	sh.mu.Unlock()
}

// quantiles returns p50/p99/p999 over the current window, the lifetime
// observation count, and the window size.
func (r *latencyReservoir) quantiles() (p50, p99, p999 time.Duration, count int64, window int) {
	sorted := make([]time.Duration, 0, latencyWindow)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := int(sh.total)
		if n > latShardWindow {
			n = latShardWindow
		}
		sorted = append(sorted, sh.buf[:n]...)
		count += sh.total
		sh.mu.Unlock()
	}
	if len(sorted) == 0 {
		return 0, 0, 0, count, latencyWindow
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest-rank on the window.
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.99), rank(0.999), count, latencyWindow
}
