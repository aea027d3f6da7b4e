// Package artcache is the content-addressed cache every entry point
// resolves compiled work through: the experiment runner (and through it
// the machine-space sweeper and every fgpexp experiment) and fgpd.
//
// An entry is addressed by content, never by name: Address hashes a key —
// the canonical compile options (core.CanonicalOptions), a swept grid —
// together with the loop's ir.Digest. Lookups are singleflight: the first
// requester of an address starts the fill, and every requester blocks on
// the entry (or on their own context) and shares the outcome. Values are
// immutable once filled, so sharing them is safe.
//
// Four rules keep one requester's trouble from reaching the others:
//
//   - A fill runs detached from its requester's cancellation, on its own
//     goroutine and bounded by the cache's fill budget, so a client that
//     gives up never aborts a fill others are waiting for. A caller that
//     bounds its concurrent work can count the fills its requests started
//     (WithFills) and hold their capacity until those fills end.
//   - Every requester, the one that started the fill included, waits on
//     the entry or on its own context, whichever ends first: a requester
//     whose deadline passes gets its context error at once, without
//     disturbing the fill in progress.
//   - A fill that fails on its context (the budget ran out) is evicted
//     rather than cached, so a timeout never poisons the address.
//   - A panic inside a fill is contained: it becomes a *PanicError, which
//     is cached like any other error (the same input panics identically).
//
// An attached kind (Kind.Attached) trades the first rule for promptness:
// its fill runs under the context of the request that started it, so that
// request's cancellation aborts it. The aborted entry is evicted, and a
// waiter whose own context is still live retries the lookup instead of
// inheriting the cancellation. Simulation results are attached: a run is
// cheap next to a compile, and a client that leaves should stop paying for
// it.
//
// A bounded cache (NewBounded) holds at most a fixed number of entries: a
// fill that would pass the limit first evicts an arbitrary completed
// entry. Fills in flight are never evicted, so a fill that finds every
// entry in flight passes the limit.
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
// tier, and a kind without them stays in memory. Attached fills run under
// the requester's context; see the package comment.
type Kind struct {
	Name     string
	Encode   func(any) ([]byte, error)
	Decode   func([]byte) (any, error)
	Attached bool
}

type entry struct {
	done chan struct{} // closed once val/err are set
	val  any
	err  error
}

// Cache is the singleflight store. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*entry
	disk   Disk
	budget time.Duration
	limit  int // entries held before a new fill evicts one; 0 = no bound

	hits, misses atomic.Int64
	// abandoned counts requesters that gave up (context done) before the
	// in-flight fill completed; they are neither hits nor misses.
	abandoned atomic.Int64
	diskHits  atomic.Int64
	fills     atomic.Int64
	evicted   atomic.Int64
}

// New returns an empty cache over the disk tier d (nil for memory only)
// whose fills each run for at most budget (0 for no bound).
func New(d Disk, budget time.Duration) *Cache {
	return &Cache{m: map[string]*entry{}, disk: d, budget: budget}
}

// NewBounded returns an empty memory-only cache that holds at most limit
// entries (at least one), with fills bounded by budget as in New. A new
// fill evicts an arbitrary completed entry to stay within the limit; when
// every entry is in flight it evicts nothing and the cache passes its
// limit.
func NewBounded(limit int, budget time.Duration) *Cache {
	c := New(nil, budget)
	c.limit = max(1, limit)
	return c
}

// Do returns the value of kind at addr, running fill on first use. hit
// reports whether an entry already existed, i.e. this request did not start
// the fill itself. A requester whose ctx ends returns its context error; a
// detached fill it was waiting on carries on for the others.
func (c *Cache) Do(ctx context.Context, kind *Kind, addr string, fill func(context.Context) (any, error)) (val any, hit bool, err error) {
	key := kind.Name + "-" + addr
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			if c.limit > 0 && len(c.m) >= c.limit {
				c.evictOne()
			}
			e = &entry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			if kind.Attached {
				// On the requester's goroutine, under its context.
				c.fill(ctx, kind, key, e, fill)
				c.misses.Add(1)
				return e.val, false, e.err
			}
			f, _ := ctx.Value(fillsKey{}).(*Fills)
			f.start()
			go func() {
				defer f.end()
				c.fill(context.WithoutCancel(ctx), kind, key, e, fill)
			}()
		} else {
			c.mu.Unlock()
		}
		select {
		case <-e.done:
			if kind.Attached && ok && isContextErr(e.err) && ctx.Err() == nil {
				continue // the filler's cancellation, not ours: look again
			}
			if ok {
				c.hits.Add(1)
			} else {
				c.misses.Add(1)
			}
			return e.val, ok, e.err
		case <-ctx.Done():
			// Neither a hit nor a miss: this request never saw the value.
			// Counting it as a hit inflated the hit rate under cancel-heavy
			// load.
			c.abandoned.Add(1)
			return nil, ok, fmt.Errorf("artcache: abandoned wait for in-flight fill: %w", ctx.Err())
		}
	}
}

// fill resolves the new entry e under ctx and publishes the outcome,
// evicting e first when the fill failed on its context.
func (c *Cache) fill(ctx context.Context, kind *Kind, key string, e *entry, fill func(context.Context) (any, error)) {
	e.val, e.err = c.resolve(ctx, kind, key, fill)
	if isContextErr(e.err) {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	close(e.done)
}

// evictOne deletes an arbitrary completed entry; the caller holds c.mu.
// In-flight entries stay: their requesters are waiting.
func (c *Cache) evictOne() {
	for key, e := range c.m {
		select {
		case <-e.done:
			delete(c.m, key)
			c.evicted.Add(1)
			return
		default:
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resolve fills a memory miss: the disk tier first, then fill itself on
// ctx bounded by the fill budget, writing the result through to disk.
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
	if c.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.budget)
		defer cancel()
	}
	v, err := fill(ctx)
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
	Abandoned int64 // requesters that gave up before the fill finished
	DiskHits  int64 // fills the disk tier served
	Fills     int64 // fills that computed their value successfully
	Evicted   int64 // completed entries dropped by the bound
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Abandoned: c.abandoned.Load(),
		DiskHits:  c.diskHits.Load(),
		Fills:     c.fills.Load(),
		Evicted:   c.evicted.Load(),
	}
	c.mu.Lock()
	s.Entries = int64(len(c.m))
	c.mu.Unlock()
	return s
}

// Fills counts the detached fills started under a context that carries it
// (WithFills), nested fills included, while they run. fgpd holds a
// request's worker slot until the fills it started end, so requests that
// give up on their fills cannot set off more concurrent fills than it has
// workers. The zero value is ready to use; a nil *Fills counts nothing.
type Fills struct {
	running atomic.Int64
	wg      sync.WaitGroup
}

type fillsKey struct{}

// WithFills returns a copy of ctx under which every detached fill Do
// starts is counted in f.
func WithFills(ctx context.Context, f *Fills) context.Context {
	return context.WithValue(ctx, fillsKey{}, f)
}

// Running reports whether a fill counted in f is still running. Once it
// is false after the last lookup under f has returned, it stays false:
// only a running fill can start another.
func (f *Fills) Running() bool { return f.running.Load() > 0 }

// Wait blocks until no fill counted in f is running.
func (f *Fills) Wait() { f.wg.Wait() }

func (f *Fills) start() {
	if f != nil {
		f.running.Add(1)
		f.wg.Add(1)
	}
}

func (f *Fills) end() {
	if f != nil {
		f.running.Add(-1)
		f.wg.Done()
	}
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
