// Request counters and the latency window behind /metrics.
//
// Each counter is one atomic word and the window is one ring under one
// mutex. fgpd's committed capacity curve peaks near 600 requests per second
// on two vCPUs, and its hottest bursts run at about a thousand: far below
// the update rates at which one shared word or lock saturates, the case
// per-thread statistical counters are for.

package service

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

type metrics struct {
	requests atomic.Int64 // passed the lever checks and the draining gate
	rejected atomic.Int64 // shed with 429 (queue full)
	canceled atomic.Int64 // client gone or deadline passed mid-request
	errors   atomic.Int64 // 4xx/5xx from validation, compile, or simulate
	batches  atomic.Int64 // /v1/batch requests admitted
	items    atomic.Int64 // batch items executed (all outcomes)

	lat latencyRing
}

// latencyWindow is the sample count quantiles are computed over (p999
// needs a few thousand).
const latencyWindow = 4096

// latencyRing keeps the last latencyWindow request durations. Quantiles
// are computed on demand from a sorted copy: /metrics is read rarely, so
// the observe path stays O(1).
type latencyRing struct {
	mu    sync.Mutex
	buf   [latencyWindow]time.Duration
	total int64 // lifetime observations; the next one goes to total % latencyWindow
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.total%latencyWindow] = d
	r.total++
	r.mu.Unlock()
}

// quantiles returns p50/p99/p999 over the current window and the lifetime
// observation count.
func (r *latencyRing) quantiles() (p50, p99, p999 time.Duration, count int64) {
	r.mu.Lock()
	count = r.total
	sorted := slices.Clone(r.buf[:min(count, latencyWindow)])
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, 0, count
	}
	slices.Sort(sorted)
	// Nearest-rank on the window.
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		return sorted[max(0, min(i, len(sorted)-1))]
	}
	return rank(0.50), rank(0.99), rank(0.999), count
}
