// The compile cache: compiled artifacts and sequential baselines are
// content-addressed by sha256 of the pipeline configuration plus the
// kernel's ir.Digest, with singleflight de-duplication so N
// concurrent requests for one (kernel, pipeline) pair compile it once and
// share the artifact. Artifacts are immutable after compilation (every
// simulation builds a fresh memory image), so sharing is safe.

package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pipelineKey is the part of the content address that is not the kernel
// itself: every compiler and machine option that changes the artifact.
// Simulation-engine selection (threaded vs reference) is deliberately absent —
// the engines are bit-identical, so both serve from one artifact.
type pipelineKey struct {
	Cores           int   `json:"cores"`
	QueueLen        int   `json:"queue_len"`
	TransferLatency int64 `json:"transfer_latency"`
	Speculate       bool  `json:"speculate"`
	NormalizeOps    int   `json:"normalize_ops"`
	Schedule        bool  `json:"schedule"`
	Sequential      bool  `json:"sequential"`
	// Partitioner is "" for the default heuristic ("heuristic" is
	// normalized away by the handler) or "search". The search seed and
	// budget are server constants, not client levers, so they are not part
	// of the address.
	Partitioner string `json:"partitioner"`
}

// Server-side partition-search parameters. Fixed so a searched artifact is
// a pure function of its content address: every replica (and the on-disk
// store) computes byte-identical partitions for the same request.
const (
	serverSearchSeed   = 1
	serverSearchBudget = 48
)

// contentAddress hashes a key — an artifact's pipelineKey, a surface's
// grid — together with the loop's digest: sha256(JSON key ‖ 0 ‖
// ir.Digest). Loops that print differently but share a wire encoding are
// the same kernel, because ir.Digest matches exactly when ir.MarshalLoop
// does, so a source submission and its equivalent inline IR share one
// address.
func contentAddress(digest [32]byte, key any) string {
	h := sha256.New()
	k, _ := json.Marshal(key) // fixed structs, cannot fail
	h.Write(k)
	h.Write([]byte{0})
	h.Write(digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

const cacheShards = 16

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{} // closed once val/err are set
	val  any
	err  error
}

// compileCache is the singleflight content-addressed store. The first
// requester of a key runs fill; everyone else blocks on the entry (or their
// own context) and shares the outcome. Entries whose fill failed with a
// context error are evicted rather than cached, so a timeout never poisons
// the key for later, luckier requests.
type compileCache struct {
	shards       [cacheShards]cacheShard
	hits, misses atomic.Int64
	// abandoned counts waiters that gave up (context done) before the
	// in-flight fill completed; they are neither hits nor misses.
	abandoned atomic.Int64
}

func newCompileCache() *compileCache {
	c := &compileCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]*cacheEntry{}
	}
	return c
}

func (c *compileCache) shardOf(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// do returns the cached value for key, filling it via fill on first use.
// hit reports whether an entry already existed (i.e. this request did not
// pay for the fill itself). Waiters give up when ctx expires without
// disturbing the fill in progress.
func (c *compileCache) do(ctx context.Context, key string, fill func() (any, error)) (val any, hit bool, err error) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()
		c.misses.Add(1)
		e.val, e.err = safeFill(fill)
		if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			sh.mu.Lock()
			if sh.m[key] == e {
				delete(sh.m, key)
			}
			sh.mu.Unlock()
		}
		close(e.done)
		return e.val, false, e.err
	}
	sh.mu.Unlock()
	select {
	case <-e.done:
		c.hits.Add(1)
		return e.val, true, e.err
	case <-ctx.Done():
		// Not a hit: this request never saw the artifact. Counting it as
		// one inflated the hit rate under cancel-heavy load (surfaced by
		// fgpload's cancel traffic class).
		c.abandoned.Add(1)
		return nil, true, fmt.Errorf("service: abandoned wait for in-flight compile: %w", ctx.Err())
	}
}

func (c *compileCache) entries() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return n
}

// panicError is a fill panic converted to an error. A panicking compile
// must not kill the filling goroutine with e.done still open (every later
// request for the key would block forever) nor poison the entry; safeFill
// turns it into a value the handlers map to an HTTP 400.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("internal panic: %v", p.val)
}

// safeFill runs fill, converting a panic into a *panicError result. The
// entry is still cached: the same input would panic identically, so
// re-running the fill for every retry only burns CPU.
func safeFill(fill func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	return fill()
}
