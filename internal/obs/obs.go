// Package obs is the cycle-attribution observability subsystem: a typed,
// allocation-conscious event stream recorded by both simulator engines,
// plus the consumers that turn one simulation's recording into the paper's
// evaluation artifacts — a per-core/per-queue stall-attribution report
// (the analysis behind Figures 13–16), a Chrome trace-event / Perfetto
// JSON export, and the legacy text trace.
//
// A run's events leave the simulator one way: as a Recorder attached to
// the run. The simulator buffers events per core while it runs and, after
// the run, hands the recorder the stream in canonical order: a stable sort
// by (Time, Core) that preserves per-core emission order among ties.
// Because each core's execution — and therefore its emission sequence — is
// bit-identical across the threaded and reference engines, the canonical
// stream is identical too, which the determinism tests and the fuzz oracle
// enforce. A run without a recorder emits nothing: the hot paths guard
// every emission behind one predictable branch, so tracing costs nothing
// when off.
package obs

import (
	"cmp"
	"slices"

	"fgp/internal/isa"
)

// Kind enumerates event types.
type Kind uint8

const (
	// KRetire is one completed instruction: [Time, End) on core Core at PC.
	KRetire Kind = iota
	// KEnq is a value entering queue Queue at Time; Occ is the occupancy
	// after the push and Seq the 0-based transfer sequence number.
	KEnq
	// KDeq is a value leaving queue Queue at Time (the moment the receiver
	// obtains it); Occ is the occupancy after the pop, Seq the sequence
	// number of the transfer (pairing it with its KEnq).
	KDeq
	// KStallBegin opens a stall window [Time, End) with cause Cause.
	KStallBegin
	// KStallEnd closes the most recent stall window of Cause on Core; its
	// Time equals the matching KStallBegin's End.
	KStallEnd
	// KRegionEnter marks control entering outlined region Region at Time.
	KRegionEnter
	// KRegionExit marks control leaving outlined region Region at Time.
	KRegionExit
)

var kindNames = [...]string{
	KRetire: "retire", KEnq: "enq", KDeq: "deq",
	KStallBegin: "stall-begin", KStallEnd: "stall-end",
	KRegionEnter: "region-enter", KRegionExit: "region-exit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// StallCause attributes a stall window to the hardware resource responsible.
type StallCause uint8

const (
	// CauseNone marks non-stall events.
	CauseNone StallCause = iota
	// CauseDeqEmpty: a dequeue waiting on an empty queue or on the transfer
	// latency of an in-flight value. Sums exactly to Result.DeqStalls.
	CauseDeqEmpty
	// CauseEnqFull: an enqueue blocked on a full queue until the receiver
	// freed a slot. Sums exactly to Result.EnqStalls.
	CauseEnqFull
	// CauseL1Miss: the excess latency of an L1 load miss over an L1 hit
	// (the raw memory penalty, after any port wait).
	CauseL1Miss
	// CauseMemPort: cycles a missing load waited for the shared memory
	// port to accept it (miss-bandwidth serialization below the L1s).
	CauseMemPort

	// NumCauses bounds arrays indexed by StallCause.
	NumCauses
)

var causeNames = [...]string{
	CauseNone: "none", CauseDeqEmpty: "deq-empty", CauseEnqFull: "enq-full",
	CauseL1Miss: "l1-miss", CauseMemPort: "mem-port",
}

func (c StallCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause?"
}

// Event is one typed trace event. It is a flat value — no pointers, no
// per-event allocation — so recording is a slice append.
type Event struct {
	Kind   Kind
	Cause  StallCause
	Op     uint8 // isa.Op of the retiring instruction (KRetire only)
	Core   int16
	PC     int32
	Queue  int32 // queue id for KEnq/KDeq, else -1
	Occ    int32 // queue occupancy after the operation (KEnq/KDeq)
	Seq    int32 // transfer sequence number within the queue (KEnq/KDeq)
	Region int32 // region id (KRegionEnter/KRegionExit)
	Time   int64 // event time / window start
	End    int64 // window end for KRetire and KStallBegin; == Time otherwise
}

// QueueMeta describes one hardware queue for consumers.
type QueueMeta struct {
	ID       int32
	Src, Dst int
	Class    string
	Cap      int
}

// Meta is the machine context of a recording.
type Meta struct {
	Cores           int
	TransferLatency int64
	Queues          []QueueMeta
	// RegionNames maps region ids appearing in KRegionEnter/KRegionExit
	// events to display names.
	RegionNames map[int32]string
}

// RegionName returns the display name of a region id.
func (m *Meta) RegionName(r int32) string {
	if n, ok := m.RegionNames[r]; ok {
		return n
	}
	return "region " + itoa(int64(r))
}

// Recorder holds one simulation's recording: attached as sim.Config.Sink,
// it receives the machine metadata and the whole event stream, in
// canonical order, when the run ends, even when the run failed. A second
// run replaces the first one's recording.
type Recorder struct {
	// RetiresOnly records instruction retires only, all the text trace
	// shows, so the simulator buffers and sorts about half as many events.
	// By default a recorder records every event.
	RetiresOnly bool
	Meta        Meta
	Events      []Event
}

// NewRecorder returns an empty recorder that records every event.
func NewRecorder() *Recorder { return &Recorder{} }

// Canonicalize stable-sorts events into the canonical delivery order:
// by Time, then core id, preserving per-core emission order among ties.
// The simulator calls it on the concatenated per-core buffers; consumers
// that re-derive ordering from raw recordings can reuse it.
func Canonicalize(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Core, b.Core))
	})
}

// SumStalls totals the stall windows per cause across all KStallBegin
// events (windows carry their end, so KStallEnd events add nothing).
func SumStalls(events []Event) [NumCauses]int64 {
	var sums [NumCauses]int64
	for i := range events {
		if events[i].Kind == KStallBegin {
			sums[events[i].Cause] += events[i].End - events[i].Time
		}
	}
	return sums
}

// OpName renders an isa opcode byte.
func OpName(op uint8) string { return isa.Op(op).String() }

// itoa is a minimal integer formatter (avoids strconv in the hot-adjacent
// paths; consumers needing full formatting use fmt).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
