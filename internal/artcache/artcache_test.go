package artcache

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var memKind = &Kind{Name: "mem"}

// TestSingleflightFillsOnce: concurrent lookups of one address run one
// fill and all see its value.
func TestSingleflightFillsOnce(t *testing.T) {
	c := New(nil, 0)
	started, release := make(chan struct{}), make(chan struct{})
	var fills atomic.Int64
	fill := func(context.Context) (any, error) {
		if fills.Add(1) == 1 {
			close(started)
		}
		<-release
		return 42, nil
	}
	const n = 16
	vals := make([]any, n)
	hits := make([]bool, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], hits[0], _ = c.Do(context.Background(), memKind, "a", fill)
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], _ = c.Do(context.Background(), memKind, "a", fill)
		}(i)
	}
	close(release)
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills, want 1", fills.Load())
	}
	for i := range vals {
		if vals[i] != 42 || hits[i] != (i != 0) {
			t.Errorf("lookup %d: val %v hit %v", i, vals[i], hits[i])
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Fills != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want 1 miss, %d hits, 1 fill, 1 entry", s, n-1)
	}
}

// TestWaiterGivesUpOnContext: a waiter whose context ends returns its
// context error and counts as abandoned; the fill carries on for others.
func TestWaiterGivesUpOnContext(t *testing.T) {
	c := New(nil, 0)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan any)
	go func() {
		v, _, _ := c.Do(context.Background(), memKind, "a", func(context.Context) (any, error) {
			close(started)
			<-release
			return "v", nil
		})
		done <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, memKind, "a", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait returned %v, want context.Canceled", err)
	}
	close(release)
	if v := <-done; v != "v" {
		t.Fatalf("filler got %v", v)
	}
	if s := c.Stats(); s.Abandoned != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want 1 abandoned and no hit", s)
	}
}

// TestFillDetachedFromRequester: the requester that starts a fill may go
// away; it gets its context error, the fill's own context is not
// cancelled, and its value is cached.
func TestFillDetachedFromRequester(t *testing.T) {
	c := New(nil, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	_, _, err := c.Do(ctx, memKind, "a", func(fctx context.Context) (any, error) {
		cancel()
		<-release
		if fctx.Err() != nil {
			return nil, fctx.Err()
		}
		if _, ok := fctx.Deadline(); !ok {
			t.Error("fill context carries no budget deadline")
		}
		return 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("requester that went away got %v, want context.Canceled", err)
	}
	close(release)
	if v, hit, err := c.Do(context.Background(), memKind, "a", nil); err != nil || v != 1 || !hit {
		t.Errorf("detached fill's value was not cached: %v hit=%v err=%v", v, hit, err)
	}
}

// TestOwnerHonorsItsDeadline: the requester that starts a fill waits like
// any other, so its own deadline ends its wait long before a slow fill
// does. It counts as abandoned, and the fill completes for the others.
func TestOwnerHonorsItsDeadline(t *testing.T) {
	c := New(nil, 0)
	release := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, hit, err := c.Do(ctx, memKind, "a", func(context.Context) (any, error) {
		<-release
		return "v", nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || hit {
		t.Fatalf("owner past its deadline: hit=%v err=%v, want a deadline miss", hit, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("owner waited %v for a fill that never ended; its 10ms deadline must end the wait", d)
	}
	if s := c.Stats(); s.Abandoned != 1 || s.Misses != 0 || s.Hits != 0 || s.Entries != 1 {
		t.Errorf("stats %+v, want 1 abandoned and the fill still in flight", s)
	}
	close(release)
	if v, hit, err := c.Do(context.Background(), memKind, "a", nil); err != nil || v != "v" || !hit {
		t.Errorf("fill did not complete for later requesters: %v hit=%v err=%v", v, hit, err)
	}
}

var attachedKind = &Kind{Name: "run", Attached: true}

// TestAttachedFillAbortsWithRequester: an attached fill runs under the
// context of the request that started it, so that request's cancellation
// aborts it and leaves no entry behind; a waiter whose own context is
// still live retries and gets the value.
func TestAttachedFillAbortsWithRequester(t *testing.T) {
	c := New(nil, 0)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var fills atomic.Int64
	fill := func(fctx context.Context) (any, error) {
		if fills.Add(1) == 1 {
			close(started)
			<-fctx.Done()
			return nil, fctx.Err()
		}
		return "v", nil
	}
	owner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, attachedKind, "a", fill)
		owner <- err
	}()
	<-started
	waiter := make(chan any, 1)
	go func() {
		v, _, err := c.Do(context.Background(), attachedKind, "a", fill)
		if err != nil {
			t.Errorf("live waiter inherited the owner's cancellation: %v", err)
		}
		waiter <- v
	}()
	// Give the waiter time to block on the entry. Should it arrive after
	// the eviction instead, it fills afresh, and the checks below hold
	// either way.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner got %v, want context.Canceled", err)
	}
	if v := <-waiter; v != "v" {
		t.Fatalf("live waiter got %v, want v", v)
	}
	if n := fills.Load(); n != 2 {
		t.Errorf("%d fills, want 2: the aborted one and the waiter's retry", n)
	}

	// Alone, a cancelled requester leaves nothing cached.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, attachedKind, "b", func(fctx context.Context) (any, error) {
		<-fctx.Done()
		return nil, fctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fill returned %v", err)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("%d entries, want 1: the aborted fill must be evicted", s.Entries)
	}
}

// TestBudgetExhaustedFillIsEvicted: a fill that fails on its context is
// not cached, so the next lookup fills again.
func TestBudgetExhaustedFillIsEvicted(t *testing.T) {
	c := New(nil, time.Millisecond)
	fills := 0
	fill := func(ctx context.Context) (any, error) {
		fills++
		if fills == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return "ok", nil
	}
	if _, _, err := c.Do(context.Background(), memKind, "a", fill); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first fill: %v, want deadline exceeded", err)
	}
	v, hit, err := c.Do(context.Background(), memKind, "a", fill)
	if err != nil || v != "ok" || hit {
		t.Fatalf("retry: %v hit=%v err=%v; a timed-out fill must not poison the address", v, hit, err)
	}
	if fills != 2 {
		t.Errorf("%d fills, want 2", fills)
	}
}

// TestSafeFillPanicIsContained: a panicking cache fill must neither kill
// the goroutine nor leave the entry's done channel open (which would hang
// every later request for the key forever). The panic converts to an
// error, and repeat lookups return it immediately.
func TestSafeFillPanicIsContained(t *testing.T) {
	c := New(nil, 0)
	fills := 0
	boom := func(context.Context) (any, error) { fills++; panic("kind mismatch in emitter") }
	for i := 0; i < 3; i++ {
		_, _, err := c.Do(context.Background(), memKind, "key", boom)
		var pe *PanicError
		if err == nil || !strings.Contains(err.Error(), "internal panic") {
			t.Fatalf("lookup %d: err = %v, want panic error", i, err)
		}
		if ok := errors.As(err, &pe); !ok || pe.Val != "kind mismatch in emitter" {
			t.Fatalf("lookup %d: panic value lost: %v", i, err)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack not captured")
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times; a deterministic panic should be cached like any error", fills)
	}
}

// memDisk is an in-memory Disk.
type memDisk struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func (d *memDisk) Get(key string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.m[key]; ok {
		return v, nil
	}
	return nil, errors.New("not found")
}

func (d *memDisk) Put(key string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[key] = data
	d.puts++
	return nil
}

var intKind = &Kind{
	Name:   "int",
	Encode: func(v any) ([]byte, error) { return strconv.AppendInt(nil, int64(v.(int)), 10), nil },
	Decode: func(b []byte) (any, error) {
		n, err := strconv.Atoi(string(b))
		return n, err
	},
}

// TestDiskTier: fills write through; a second cache over the same disk
// reads them without filling; an undecodable entry is refilled and
// overwritten; a kind without a codec never touches the disk.
func TestDiskTier(t *testing.T) {
	d := &memDisk{m: map[string][]byte{}}
	fills := 0
	fill := func(context.Context) (any, error) { fills++; return 7, nil }

	a := New(d, 0)
	if v, _, err := a.Do(context.Background(), intKind, "x", fill); err != nil || v != 7 {
		t.Fatalf("cold fill: %v %v", v, err)
	}
	if _, ok := d.m["int-x"]; !ok || fills != 1 {
		t.Fatalf("fill not written through: disk %v, %d fills", d.m, fills)
	}

	b := New(d, 0)
	if v, _, err := b.Do(context.Background(), intKind, "x", fill); err != nil || v != 7 {
		t.Fatalf("warm lookup: %v %v", v, err)
	}
	if s := b.Stats(); fills != 1 || s.DiskHits != 1 || s.Fills != 0 {
		t.Errorf("warm lookup filled: %d fills, stats %+v", fills, s)
	}

	d.m["int-x"] = []byte("not a number")
	c := New(d, 0)
	if v, _, err := c.Do(context.Background(), intKind, "x", fill); err != nil || v != 7 || fills != 2 {
		t.Fatalf("undecodable entry: %v %v after %d fills", v, err, fills)
	}
	if string(d.m["int-x"]) != "7" {
		t.Errorf("undecodable entry not overwritten: %q", d.m["int-x"])
	}

	puts := d.puts
	if _, _, err := c.Do(context.Background(), memKind, "x", fill); err != nil || d.puts != puts {
		t.Errorf("memory-only kind wrote to disk (%d puts, err %v)", d.puts-puts, err)
	}
}

// TestAddress: the address separates keys, digests and nothing else.
func TestAddress(t *testing.T) {
	type key struct{ A int }
	d1, d2 := [32]byte{1}, [32]byte{2}
	if Address(d1, key{1}) != Address(d1, key{1}) {
		t.Error("equal key and digest, different addresses")
	}
	if Address(d1, key{1}) == Address(d1, key{2}) {
		t.Error("different keys share an address")
	}
	if Address(d1, key{1}) == Address(d2, key{1}) {
		t.Error("different digests share an address")
	}
}

// TestFillsCountsDetachedFills: a fill started under WithFills, and a fill
// it starts in turn, are counted while they run, so a caller can hold the
// capacity of a requester that gave up until its work ends.
func TestFillsCountsDetachedFills(t *testing.T) {
	c := New(nil, 0)
	var f Fills
	ctx, cancel := context.WithCancel(WithFills(context.Background(), &f))
	release := make(chan struct{})
	nested := make(chan error, 1)
	_, _, err := c.Do(ctx, memKind, "outer", func(fctx context.Context) (any, error) {
		cancel()
		_, _, err := c.Do(fctx, memKind, "inner", func(context.Context) (any, error) {
			<-release
			return 2, nil
		})
		nested <- err
		return 1, err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("requester that gave up got %v, want context.Canceled", err)
	}
	if !f.Running() {
		t.Fatal("the abandoned fill is not counted as running")
	}
	close(release)
	f.Wait()
	if f.Running() {
		t.Error("fills still counted as running after Wait")
	}
	if err := <-nested; err != nil {
		t.Errorf("nested fill: %v", err)
	}
	if s := c.Stats(); s.Fills != 2 {
		t.Errorf("stats %+v, want the outer and nested fills completed", s)
	}

	// Attached fills run on the requester's goroutine and are not counted.
	var g Fills
	if _, _, err := c.Do(WithFills(context.Background(), &g), attachedKind, "run", func(context.Context) (any, error) {
		return 3, nil
	}); err != nil || g.Running() {
		t.Errorf("attached fill: err=%v running=%v", err, g.Running())
	}
}

// TestBoundedCacheEvicts: a bounded cache holds its limit of entries
// cache-wide, evicting completed ones past it, and never evicts a fill in
// flight.
func TestBoundedCacheEvicts(t *testing.T) {
	c := NewBounded(32, 0)
	const n = 200
	for i := range n {
		if _, _, err := c.Do(context.Background(), memKind, strconv.Itoa(i), func(context.Context) (any, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); i == 31 && (s.Entries != 32 || s.Evicted != 0) {
			t.Errorf("stats %+v after 32 fills, want all 32 held", s)
		}
	}
	if s := c.Stats(); s.Entries != 32 || s.Evicted != n-32 || s.Misses != n {
		t.Errorf("stats %+v, want 32 entries and the other %d evicted", s, n-32)
	}

	// An in-flight fill survives a new fill past the limit, and the cache
	// then holds both.
	c = NewBounded(1, 0)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan any)
	go func() {
		v, _, _ := c.Do(context.Background(), memKind, "a", func(context.Context) (any, error) {
			close(started)
			<-release
			return "a", nil
		})
		done <- v
	}()
	<-started
	if _, _, err := c.Do(context.Background(), memKind, "b", func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 2 || s.Evicted != 0 {
		t.Errorf("stats %+v, want the in-flight fill kept beside the new entry", s)
	}
	close(release)
	if v := <-done; v != "a" {
		t.Fatalf("in-flight fill returned %v", v)
	}
	if _, hit, _ := c.Do(context.Background(), memKind, "a", nil); !hit {
		t.Error("completed in-flight fill was not cached")
	}
}
