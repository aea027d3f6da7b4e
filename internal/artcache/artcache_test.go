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

// TestFillDetachedFromRequester: the requester that runs a fill may go
// away; the fill's own context is not cancelled, and its value is cached.
func TestFillDetachedFromRequester(t *testing.T) {
	c := New(nil, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	v, _, err := c.Do(ctx, memKind, "a", func(fctx context.Context) (any, error) {
		cancel()
		if fctx.Err() != nil {
			return nil, fctx.Err()
		}
		if _, ok := fctx.Deadline(); !ok {
			t.Error("fill context carries no budget deadline")
		}
		return 1, nil
	})
	if err != nil || v != 1 {
		t.Fatalf("detached fill: %v, %v", v, err)
	}
	if _, hit, _ := c.Do(context.Background(), memKind, "a", nil); !hit {
		t.Error("detached fill's value was not cached")
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
		_, _, err := c.Do(t.Context(), memKind, "key", boom)
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
