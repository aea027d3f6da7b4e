package queue

import (
	"testing"
	"testing/quick"

	"fgp/internal/interp"
	"fgp/internal/ir"
)

func TestFIFOOrder(t *testing.T) {
	q := New(0, 0, 1, ir.I64, 4)
	for i := int64(0); i < 4; i++ {
		if q.Full() {
			t.Fatalf("queue full after %d pushes", i)
		}
		q.Push(interp.VI(i), 100+i, int32(i))
	}
	if !q.Full() {
		t.Error("queue should be full at capacity")
	}
	for i := int64(0); i < 4; i++ {
		e := q.Pop()
		if e.V.I != i || e.Edge != int32(i) || e.AvailAt != 100+i {
			t.Fatalf("pop %d = %+v", i, e)
		}
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

func TestHeadDoesNotConsume(t *testing.T) {
	q := New(0, 0, 1, ir.F64, 2)
	q.Push(interp.VF(1.5), 7, 0)
	if q.Head().V.F != 1.5 || q.Len() != 1 {
		t.Error("Head must not consume")
	}
	if q.Pop().V.F != 1.5 || q.Len() != 0 {
		t.Error("Pop after Head wrong")
	}
}

func TestStats(t *testing.T) {
	q := New(3, 1, 2, ir.F64, 8)
	if q.Used() {
		t.Error("fresh queue must be unused")
	}
	q.Push(interp.VF(1), 0, 0)
	q.Push(interp.VF(2), 0, 1)
	q.Pop()
	q.Push(interp.VF(3), 0, 2)
	if !q.Used() || q.Transfers != 3 {
		t.Errorf("stats: used=%v transfers=%d", q.Used(), q.Transfers)
	}
}

func TestPanics(t *testing.T) {
	q := New(0, 0, 1, ir.I64, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pop on empty must panic")
			}
		}()
		q.Pop()
	}()
	q.Push(interp.VI(1), 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push on full must panic")
			}
		}()
		q.Push(interp.VI(2), 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity must panic")
			}
		}()
		New(0, 0, 1, ir.I64, 0)
	}()
}

// Property: any interleaving of pushes and pops preserves FIFO order, the
// entry sequence numbers pair the k-th pop with the k-th push, and the
// stats stay consistent with occupancy at every step.
func TestQuickFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		q := New(0, 0, 1, ir.I64, 16)
		next := int64(0)   // next value to push
		expect := int64(0) // next value we must pop
		for _, push := range ops {
			if push {
				if q.Full() {
					continue
				}
				q.Push(interp.VI(next), next, int32(next))
				next++
			} else {
				if q.Empty() {
					continue
				}
				e := q.Pop()
				if e.V.I != expect || e.Seq != expect {
					return false
				}
				expect++
			}
			if q.CheckStats() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPairingViolationDetected corrupts the ring from inside the package
// (as a head-arithmetic bug would) and checks that Pop refuses to hand out
// an entry whose push sequence number does not match the pop sequence.
func TestPairingViolationDetected(t *testing.T) {
	q := New(0, 0, 1, ir.I64, 4)
	q.Push(interp.VI(10), 0, 0)
	q.Push(interp.VI(11), 0, 1)
	q.buf[q.head].Seq = 1 // the head now claims to be the second push
	defer func() {
		if recover() == nil {
			t.Error("pop of a mispaired entry must panic")
		}
	}()
	q.Pop()
}

// TestCheckStatsDetectsDrift breaks each counter relation CheckStats
// guards and confirms it reports the drift.
func TestCheckStatsDetectsDrift(t *testing.T) {
	mk := func() *Queue {
		q := New(0, 0, 1, ir.I64, 4)
		q.Push(interp.VI(1), 0, 0)
		q.Push(interp.VI(2), 0, 1)
		q.Pop()
		return q
	}
	if q := mk(); q.CheckStats() != nil {
		t.Fatalf("healthy queue flagged: %v", q.CheckStats())
	}
	q := mk()
	q.Transfers++ // a push the ring never saw
	if q.CheckStats() == nil {
		t.Error("transfer/occupancy drift not detected")
	}
	q = mk()
	q.buf = nil // transfers happened but the queue holds no ring
	if q.CheckStats() == nil {
		t.Error("used/transfers disagreement not detected")
	}
}

// TestRingAllocatedOnFirstPush: a machine builds a queue for every core
// pair and class, so a queue holds no ring until a value is pushed.
func TestRingAllocatedOnFirstPush(t *testing.T) {
	q := New(0, 0, 1, ir.F64, 20)
	if q.buf != nil || !q.Empty() || q.Full() {
		t.Fatalf("new queue: ring of %d, empty %v, full %v", len(q.buf), q.Empty(), q.Full())
	}
	q.Push(interp.VF(1.5), 3, 0)
	if len(q.buf) != 20 || q.Len() != 1 || q.Head().V.F != 1.5 {
		t.Fatalf("after one push: ring of %d, len %d, head %+v", len(q.buf), q.Len(), q.Head())
	}
}
