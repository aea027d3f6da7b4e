// The stall-attribution report: one simulation's cycles decomposed per
// core by cause, queue occupancy telemetry, and the load-imbalance index —
// the analysis the paper runs behind Figures 13–16 to explain every
// speedup or slowdown as communication overhead, queue stalls, or load
// imbalance across the partitioned fibers.

package obs

import (
	"fmt"
	"strings"
)

// CoreReport decomposes one core's cycles.
type CoreReport struct {
	Core   int
	Cycles int64 // this core's final local time
	Instrs int64 // retired instructions
	Busy   int64 // Cycles minus all attributed stalls
	Stalls [NumCauses]int64
}

// Util returns the fraction of this core's cycles spent busy.
func (c *CoreReport) Util() float64 {
	if c.Cycles <= 0 {
		return 0
	}
	return float64(c.Busy) / float64(c.Cycles)
}

// OccSample is one point of a queue's occupancy time series.
type OccSample struct {
	Time int64
	Occ  int32
}

// QueueReport summarizes one queue's telemetry.
type QueueReport struct {
	QueueMeta
	Transfers int64
	HighWater int32
	// AvgOcc is the time-weighted mean occupancy over the whole run.
	AvgOcc float64
	// Series is the full occupancy time series (one sample per enqueue
	// and dequeue, occupancy after the operation).
	Series []OccSample
}

// Report is the full cycle attribution of one simulation.
type Report struct {
	Meta        Meta
	TotalCycles int64
	Cores       []CoreReport
	Queues      []QueueReport // only queues that carried traffic, by id
	// Imbalance is max(busy)/mean(busy) across all cores; 1.0 is a
	// perfectly balanced partitioning.
	Imbalance float64
}

// StallTotals sums each cause across cores. The queue-cause entries equal
// the simulator's aggregate EnqStalls/DeqStalls counters exactly (the
// fuzz oracle's metamorphic invariant).
func (r *Report) StallTotals() [NumCauses]int64 {
	var t [NumCauses]int64
	for i := range r.Cores {
		for c := 0; c < int(NumCauses); c++ {
			t[c] += r.Cores[i].Stalls[c]
		}
	}
	return t
}

// BuildReport computes the attribution from one recorded stream. Events
// must be in canonical order, as a Recorder holds them.
func BuildReport(meta Meta, events []Event) *Report {
	r := &Report{Meta: meta, Cores: make([]CoreReport, meta.Cores)}
	for i := range r.Cores {
		r.Cores[i].Core = i
	}
	type qacc struct {
		samples  []OccSample
		integral int64 // occupancy-cycles accumulated up to lastT
		lastT    int64
		lastOcc  int32
		hi       int32
		n        int64
	}
	qs := map[int32]*qacc{}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case KRetire:
			c := &r.Cores[e.Core]
			c.Instrs++
			if e.End > c.Cycles {
				c.Cycles = e.End
			}
		case KStallBegin:
			r.Cores[e.Core].Stalls[e.Cause] += e.End - e.Time
		case KEnq, KDeq:
			a := qs[e.Queue]
			if a == nil {
				a = &qacc{}
				qs[e.Queue] = a
			}
			a.integral += int64(a.lastOcc) * (e.Time - a.lastT)
			a.lastT = e.Time
			a.lastOcc = e.Occ
			if e.Occ > a.hi {
				a.hi = e.Occ
			}
			if e.Kind == KEnq {
				a.n++
			}
			a.samples = append(a.samples, OccSample{Time: e.Time, Occ: e.Occ})
		}
	}
	for i := range r.Cores {
		if r.Cores[i].Cycles > r.TotalCycles {
			r.TotalCycles = r.Cores[i].Cycles
		}
	}
	var busySum, busyMax int64
	for i := range r.Cores {
		c := &r.Cores[i]
		c.Busy = c.Cycles
		for _, s := range c.Stalls {
			c.Busy -= s
		}
		busySum += c.Busy
		if c.Busy > busyMax {
			busyMax = c.Busy
		}
	}
	r.Imbalance = 1.0
	if len(r.Cores) > 0 && busySum > 0 {
		r.Imbalance = float64(busyMax) * float64(len(r.Cores)) / float64(busySum)
	}
	for _, qm := range meta.Queues {
		a := qs[qm.ID]
		if a == nil {
			continue
		}
		a.integral += int64(a.lastOcc) * (r.TotalCycles - a.lastT)
		avg := 0.0
		if r.TotalCycles > 0 {
			avg = float64(a.integral) / float64(r.TotalCycles)
		}
		r.Queues = append(r.Queues, QueueReport{
			QueueMeta: qm, Transfers: a.n, HighWater: a.hi,
			AvgOcc: avg, Series: a.samples,
		})
	}
	return r
}

// Format renders the report as the text table the CLIs print and the
// golden-report test pins.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stall attribution — %d cores, %d cycles, imbalance %.2f (max/mean busy)\n",
		r.Meta.Cores, r.TotalCycles, r.Imbalance)
	fmt.Fprintf(&sb, "%4s %10s %10s %10s %10s %10s %10s %6s\n",
		"core", "cycles", "busy", "deq-empty", "enq-full", "l1-miss", "mem-port", "util%")
	for i := range r.Cores {
		c := &r.Cores[i]
		fmt.Fprintf(&sb, "%4d %10d %10d %10d %10d %10d %10d %6.1f\n",
			c.Core, c.Cycles, c.Busy,
			c.Stalls[CauseDeqEmpty], c.Stalls[CauseEnqFull],
			c.Stalls[CauseL1Miss], c.Stalls[CauseMemPort], 100*c.Util())
	}
	t := r.StallTotals()
	fmt.Fprintf(&sb, "totals: deq-empty %d  enq-full %d  l1-miss %d  mem-port %d\n",
		t[CauseDeqEmpty], t[CauseEnqFull], t[CauseL1Miss], t[CauseMemPort])
	if len(r.Queues) > 0 {
		fmt.Fprintf(&sb, "%-6s %8s %6s %10s %11s %8s\n",
			"queue", "src->dst", "class", "transfers", "high-water", "avg-occ")
		for i := range r.Queues {
			q := &r.Queues[i]
			fmt.Fprintf(&sb, "q%-5d %4d->%-3d %6s %10d %11d %8.2f\n",
				q.ID, q.Src, q.Dst, q.Class, q.Transfers, q.HighWater, q.AvgOcc)
		}
	}
	return sb.String()
}
