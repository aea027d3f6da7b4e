// Observability plumbing: the machine-side half of internal/obs. Events are
// appended to per-core buffers in each core's execution order while the run
// is in flight, then merged into the canonical (Time, Core)-stable order and
// handed to the run's recorder. A recorded run always executes on the
// reference scheduler (the threaded engine hands it over), so the
// canonical stream is the same whichever engine was selected — the
// determinism tests enforce this.

package sim

import (
	"fgp/internal/isa"
	"fgp/internal/obs"
	"fgp/internal/queue"
)

// attachObs arms the emission paths for one recorded run.
func (m *Machine) attachObs() {
	m.obsAll = !m.cfg.Sink.RetiresOnly
	m.obsBuf = make([][]obs.Event, len(m.cores))
	if m.obsAll {
		m.marks = make([]map[int][]isa.Mark, len(m.cores))
		m.regionStack = make([][]int32, len(m.cores))
		for i, c := range m.cores {
			if len(c.prog.Marks) == 0 {
				continue
			}
			byPC := make(map[int][]isa.Mark, len(c.prog.Marks))
			for _, mk := range c.prog.Marks {
				byPC[mk.PC] = append(byPC[mk.PC], mk)
			}
			m.marks[i] = byPC
		}
	}
}

// drainObs merges the per-core buffers into canonical order and gives the
// recorder the run's metadata and stream. It runs even when the simulation
// errored, so a partial trace of a deadlocked run survives.
func (m *Machine) drainObs() {
	total := 0
	for _, b := range m.obsBuf {
		total += len(b)
	}
	all := make([]obs.Event, 0, total)
	for _, b := range m.obsBuf {
		all = append(all, b...)
	}
	obs.Canonicalize(all)
	m.cfg.Sink.Meta, m.cfg.Sink.Events = m.obsMeta(), all
}

// obsMeta describes the machine to the recorder.
func (m *Machine) obsMeta() obs.Meta {
	meta := obs.Meta{Cores: len(m.cores), TransferLatency: m.cfg.TransferLatency}
	for _, q := range m.queues {
		if q != nil {
			meta.Queues = append(meta.Queues, obs.QueueMeta{
				ID: q.ID, Src: q.Src, Dst: q.Dst,
				Class: q.Class.String(), Cap: q.Cap,
			})
		}
	}
	names := map[int32]string{}
	for _, c := range m.cores {
		for _, mk := range c.prog.Marks {
			if mk.Enter && mk.Name != "" {
				names[mk.Region] = mk.Name
			}
		}
	}
	if len(names) > 0 {
		meta.RegionNames = names
	}
	return meta
}

// emit appends one event to a core's buffer.
func (m *Machine) emit(core int, e obs.Event) {
	e.Core = int16(core)
	m.obsBuf[core] = append(m.obsBuf[core], e)
}

// evStall emits a stall window [t0, t1) with its matching end marker.
// Zero-length windows are suppressed, so only real stalls appear.
func (m *Machine) evStall(core int, cause obs.StallCause, t0, t1 int64) {
	if t0 == t1 {
		return
	}
	m.emit(core, obs.Event{Kind: obs.KStallBegin, Cause: cause, Queue: -1, Time: t0, End: t1})
	m.emit(core, obs.Event{Kind: obs.KStallEnd, Cause: cause, Queue: -1, Time: t1, End: t1})
}

// evQueue emits queue telemetry after a push or pop: occupancy after the
// operation plus the transfer sequence number, which pairs each dequeue
// with its enqueue (FIFO order: the k-th pop receives the k-th push).
func (m *Machine) evQueue(kind obs.Kind, core int, q *queue.Queue, t int64) {
	var seq int64
	if kind == obs.KEnq {
		seq = q.Transfers - 1
	} else {
		seq = q.Pops - 1
	}
	m.emit(core, obs.Event{
		Kind: kind, Queue: q.ID, Occ: int32(q.Len()), Seq: int32(seq),
		Time: t, End: t,
	})
}

// evComplete fires the region marks and the retire event of one completed
// instruction: pc ran on core over [start, end). Marks fire at completion,
// never on a blocked enqueue/dequeue retry, so each boundary fires once.
func (m *Machine) evComplete(core, pc int, op isa.Op, start, end int64) {
	if m.obsAll && m.marks[core] != nil {
		if mks, ok := m.marks[core][pc]; ok {
			st := m.regionStack[core]
			for _, mk := range mks {
				if mk.Enter {
					st = append(st, mk.Region)
					m.emit(core, obs.Event{Kind: obs.KRegionEnter, Region: mk.Region, Queue: -1, Time: start, End: start})
				} else if n := len(st); n > 0 && st[n-1] == mk.Region {
					st = st[:n-1]
					m.emit(core, obs.Event{Kind: obs.KRegionExit, Region: mk.Region, Queue: -1, Time: start, End: start})
				}
			}
			m.regionStack[core] = st
		}
	}
	m.emit(core, obs.Event{Kind: obs.KRetire, Op: uint8(op), PC: int32(pc), Queue: -1, Time: start, End: end})
}
