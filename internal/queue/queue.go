// Package queue models the dedicated hardware communication queues the
// paper introduces (Section II, Fig 3): fixed-length FIFOs between a
// specific (sender core, receiver core) pair, one per register class, with
// a configurable transfer latency. An enqueued value becomes visible to the
// receiver only transfer-latency cycles after the enqueue issues (Fig 11);
// enqueues block while the queue is full and dequeues block until a value
// is visible.
package queue

import (
	"fmt"

	"fgp/internal/interp"
	"fgp/internal/ir"
)

// Entry is one in-flight value.
type Entry struct {
	V       interp.Value
	AvailAt int64 // simulation time at which the receiver may observe it
	Edge    int32 // communication-edge tag for debug verification
	Seq     int64 // push sequence number (0-based), stamped by Push
}

// Queue is one directional hardware queue.
type Queue struct {
	ID       int32
	Src, Dst int
	Class    ir.Kind
	Cap      int

	buf  []Entry // ring buffer of Cap entries, allocated by the first Push
	head int     // index of the oldest entry
	n    int     // current occupancy

	// Transfer counts, for the evaluation's "queues actually used" metric
	// and general stats. Transfers counts pushes and Pops counts pops, so
	// Transfers-1 / Pops-1 are the sequence numbers of the most recent push
	// / pop — the observability layer uses them to pair every dequeue with
	// its enqueue (FIFO order makes the k-th pop receive the k-th push).
	Transfers int64
	Pops      int64
}

// New creates an empty queue with the given capacity. Its ring is
// allocated by the first Push: a machine has a queue for every ordered
// core pair and class, and a program uses few of them.
func New(id int32, src, dst int, class ir.Kind, capacity int) *Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: capacity must be >= 1, got %d", capacity))
	}
	return &Queue{ID: id, Src: src, Dst: dst, Class: class, Cap: capacity}
}

// Full reports whether an enqueue would block.
func (q *Queue) Full() bool { return q.n >= q.Cap }

// Empty reports whether no entries are present (visible or not).
func (q *Queue) Empty() bool { return q.n == 0 }

// Len returns the current occupancy.
func (q *Queue) Len() int { return q.n }

// Used reports whether the queue ever carried a value.
func (q *Queue) Used() bool { return q.buf != nil }

// Push appends a value that becomes visible at availAt. The caller must
// have checked Full.
func (q *Queue) Push(v interp.Value, availAt int64, edge int32) {
	if q.Full() {
		panic("queue: push on full queue")
	}
	if q.buf == nil {
		q.buf = make([]Entry, q.Cap)
	}
	tail := q.head + q.n
	if tail >= q.Cap {
		tail -= q.Cap
	}
	q.buf[tail] = Entry{V: v, AvailAt: availAt, Edge: edge, Seq: q.Transfers}
	q.n++
	q.Transfers++
}

// Head returns the oldest entry without removing it. The caller must have
// checked Empty.
func (q *Queue) Head() Entry {
	if q.Empty() {
		panic("queue: head of empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest entry. The caller must have checked
// Empty.
//
// Pop enforces the stats pairing invariant the observability layer
// depends on: the k-th pop must receive the k-th push (entries carry their
// push sequence number, and FIFO order makes it equal to the pop sequence
// number). A mismatch means the ring arithmetic and the Transfers/Pops
// counters have drifted apart — every seq-paired flow arrow in the trace
// would silently point at the wrong enqueue — so it is a panic, like
// push-on-full, not an error.
func (q *Queue) Pop() Entry {
	e := q.Head()
	q.head++
	if q.head >= q.Cap {
		q.head = 0
	}
	q.n--
	q.Pops++
	if e.Seq != q.Pops-1 {
		panic(fmt.Sprintf("queue: %v pairing violated: pop %d received push %d", q, q.Pops-1, e.Seq))
	}
	return e
}

// CheckStats is the debug/test hook validating that the occupancy counters
// the observability layer pairs transfers with are mutually consistent. It
// can be called at any quiescent point (between simulator cycles, after a
// run); the simulator's tests run it after every drained program.
func (q *Queue) CheckStats() error {
	if got := q.Transfers - q.Pops; got != int64(q.n) {
		return fmt.Errorf("queue: %v stats drifted: %d pushes - %d pops = %d but occupancy is %d",
			q, q.Transfers, q.Pops, got, q.n)
	}
	if q.Used() != (q.Transfers > 0) {
		return fmt.Errorf("queue: %v used=%v disagrees with %d transfers", q, q.Used(), q.Transfers)
	}
	return nil
}

func (q *Queue) String() string {
	return fmt.Sprintf("q%d(%d->%d %s, %d/%d)", q.ID, q.Src, q.Dst, q.Class, q.n, q.Cap)
}
