// Package artcache is the content-addressed cache every entry point
// resolves compiled work through: the experiment runner (and through it
// the machine-space sweeper and every fgpexp experiment) and fgpd.
//
// An entry is addressed by content, never by name: Address hashes a key —
// the canonical compile options (core.CanonicalOptions), a swept grid —
// together with the loop's ir.Digest. Lookups are singleflight: the first
// requester of an address runs the fill and everyone else blocks on the
// entry (or on their own context) and shares the outcome. Values are
// immutable once filled, so sharing them is safe.
//
// Four rules keep one requester's trouble from reaching the others:
//
//   - A fill runs detached from its requester's cancellation, bounded by
//     the cache's fill budget, so a client that gives up never aborts a
//     fill others are waiting for.
//   - A waiter gives up when its own context ends, without disturbing the
//     fill in progress.
//   - A fill that fails on its context (the budget ran out) is evicted
//     rather than cached, so a timeout never poisons the address.
//   - A panic inside a fill is contained: it becomes a *PanicError, which
//     is cached like any other error (the same input panics identically).
//
// An optional disk tier sits underneath: a fill first asks the disk for
// the address, and writes what it computes through to it, so a restarted
// daemon or a replica sharing the directory reads earlier fills instead of
// recomputing them. A read the kind cannot decode (a wire-version skew
// after an upgrade) counts as a miss and is overwritten; a failed write
// degrades the cache to memory only rather than failing the lookup.
package artcache

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
	"time"
)

// Address hashes a key together with a loop's digest: sha256(JSON key ‖ 0 ‖
// digest), hex-encoded. Loops that print differently but share a wire
// encoding have one digest (ir.Digest matches exactly when ir.MarshalLoop
// does), so a source submission and its equivalent IR share an address.
func Address(digest [32]byte, key any) string {
	h := sha256.New()
	k, err := json.Marshal(key)
	if err != nil {
		// Keys are plain option and grid structs; one that cannot encode is
		// a programming error, not an input the cache can address.
		panic(fmt.Sprintf("artcache: unencodable key %T: %v", key, err))
	}
	h.Write(k)
	h.Write([]byte{0})
	h.Write(digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Disk is the optional tier below memory; internal/service/store
// implements it. Get reports a missing or corrupt entry as an error.
type Disk interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// Kind names one class of entry. The name namespaces the address, in
// memory and on disk; Encode and Decode carry a value through the disk
// tier, and a kind without them stays in memory.
type Kind struct {
	Name   string
	Encode func(any) ([]byte, error)
	Decode func([]byte) (any, error)
}

const shards = 16

type shard struct {
	mu sync.Mutex
	m  map[string]*entry
}

type entry struct {
	done chan struct{} // closed once val/err are set
	val  any
	err  error
}

// Cache is the singleflight store. Safe for concurrent use.
type Cache struct {
	shards [shards]shard
	disk   Disk
	budget time.Duration

	hits, misses atomic.Int64
	// abandoned counts waiters that gave up (context done) before the
	// in-flight fill completed; they are neither hits nor misses.
	abandoned atomic.Int64
	diskHits  atomic.Int64
	fills     atomic.Int64
}

// New returns an empty cache over the disk tier d (nil for memory only)
// whose fills each run for at most budget (0 for no bound).
func New(d Disk, budget time.Duration) *Cache {
	c := &Cache{disk: d, budget: budget}
	for i := range c.shards {
		c.shards[i].m = map[string]*entry{}
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%shards]
}

// Do returns the value of kind at addr, running fill on first use. hit
// reports whether an entry already existed, i.e. this request did not pay
// for the fill itself. A waiter whose ctx ends returns its context error;
// the fill it was waiting on carries on for the others.
func (c *Cache) Do(ctx context.Context, kind *Kind, addr string, fill func(context.Context) (any, error)) (val any, hit bool, err error) {
	key := kind.Name + "-" + addr
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		e = &entry{done: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()
		c.misses.Add(1)
		e.val, e.err = c.resolve(ctx, kind, key, fill)
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
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
		// Not a hit: this request never saw the value. Counting it as one
		// inflated the hit rate under cancel-heavy load.
		c.abandoned.Add(1)
		return nil, true, fmt.Errorf("artcache: abandoned wait for in-flight fill: %w", ctx.Err())
	}
}

// resolve fills a memory miss: the disk tier first, then fill itself on a
// context detached from the requester's and bounded by the fill budget,
// writing the result through to disk.
func (c *Cache) resolve(ctx context.Context, kind *Kind, key string, fill func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	persist := c.disk != nil && kind.Encode != nil
	if persist {
		if data, err := c.disk.Get(key); err == nil {
			if v, err := kind.Decode(data); err == nil {
				c.diskHits.Add(1)
				return v, nil
			}
		}
	}
	fctx := context.WithoutCancel(ctx)
	if c.budget > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(fctx, c.budget)
		defer cancel()
	}
	v, err := fill(fctx)
	if err != nil {
		return nil, err
	}
	c.fills.Add(1)
	if persist {
		if data, err := kind.Encode(v); err == nil {
			_ = c.disk.Put(key, data) // best effort; see the package comment
		}
	}
	return v, nil
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Entries   int64 // addresses held in memory, filled or in flight
	Hits      int64 // lookups served by an existing memory entry
	Misses    int64 // lookups that ran a fill
	Abandoned int64 // waiters that gave up before the fill finished
	DiskHits  int64 // fills the disk tier served
	Fills     int64 // fills that computed their value successfully
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Abandoned: c.abandoned.Load(),
		DiskHits:  c.diskHits.Load(),
		Fills:     c.fills.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return s
}

// PanicError is a fill panic converted to an error. A panicking fill must
// not kill the filling goroutine with the entry still open (every later
// request for the address would block forever) nor poison the entry.
type PanicError struct {
	Val   any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("internal panic: %v", p.Val)
}
