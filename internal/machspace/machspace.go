// Package machspace explores the machine design space around the paper's
// fixed operating point (queue length 20, transfer latency 5, 1-cycle
// enqueue/dequeue, 4 cores, 32 KiB L1). The paper's Fig 13/14 sensitivity
// story varies one hardware lever at a time; this package productizes the
// idea: a budgeted sweep engine enumerates a grid over (core count, queue
// capacity, transfer latency, enqueue/dequeue issue cost, L1 size and
// latencies), runs every point through the real compile-and-simulate
// pipeline, and reduces the resulting surface to a Pareto frontier of
// speedup versus hardware cost — so "what hardware would this loop need to
// hit 2x?" has a computable, cacheable answer (the inverse query).
//
// Every axis may be dialed to literal zero where that describes a machine
// (zero-cycle transfers, free enqueues): sweep points are validated by
// sim.Config.Validate before any compile, and a point the pipeline rejects
// (e.g. the verifier refusing a priming depth that exceeds a one-slot
// queue) is recorded as a structured rejection in the surface rather than
// failing the sweep.
//
// A heuristic sweep compiles one artifact per (cores, queue) cell and
// applies the transfer latency at simulation time. The search partitioner
// scores partitions on the machine it compiles for, so a searched sweep
// compiles one artifact per (cores, queue, latency) cell — 30 for the
// default grid instead of 5 — and each point reads what fgpd's /v1/run
// reads for the same levers. Every point simulates on its own machine,
// Point.Config, and on the experiments Runner's engine (Runner.SetEngine):
// a sweep has no engine option of its own.
package machspace

import (
	"errors"
	"fmt"

	"fgp/internal/sim"
)

// Point is one hardware configuration: the swept subset of sim.Config,
// flattened. The zero value is NOT the paper default — grids are built by
// Grid.Normalize, which fills unswept axes with the paper's values.
type Point struct {
	Cores           int   `json:"cores"`
	QueueLen        int   `json:"queue_len"`
	TransferLatency int64 `json:"transfer_latency"`
	EnqCost         int64 `json:"enq_cost"`
	DeqCost         int64 `json:"deq_cost"`
	// L1Lines is the per-core L1 size in 64-byte lines (512 = the default
	// 32 KiB). 0 disables the L1 timing model: every load hits.
	L1Lines int   `json:"l1_lines"`
	L1Hit   int64 `json:"l1_hit"`
	L1Miss  int64 `json:"l1_miss"`
}

// Config renders the point as a machine configuration: the paper-default
// machine with this point's levers applied.
func (p Point) Config() sim.Config {
	cfg := sim.DefaultConfig(p.Cores)
	cfg.QueueLen = p.QueueLen
	cfg.TransferLatency = p.TransferLatency
	cfg.Cost.Enq = p.EnqCost
	cfg.Cost.Deq = p.DeqCost
	cfg.Cache.Lines = p.L1Lines
	cfg.Cost.L1Hit = p.L1Hit
	cfg.Cost.L1Miss = p.L1Miss
	return cfg
}

// Validate rejects points the simulator cannot model, with the structured
// *sim.ConfigError naming the offending lever.
func (p Point) Validate() error {
	cfg := p.Config()
	return cfg.Validate()
}

// HWCost scores the hardware the point asks for, in abstract cost units.
// The model is deliberately simple but strictly monotone in the favorable
// direction of every axis — more cores, more queue slots, more L1 lines,
// and *lower* latencies all cost more — which is all the Pareto reduction
// and the inverse query need. Units: a core costs 1000; the all-to-all
// queue fabric costs 2 per slot (cores² point-to-point pairs × 2 classes ×
// capacity); L1 lines cost 1 per core; each latency lever contributes a
// budget divided by (latency+1), so zero-cycle hardware is the most
// expensive spelling of its axis. Integer arithmetic keeps the score
// byte-stable across platforms.
func (p Point) HWCost() int64 {
	c := int64(p.Cores) * 1000
	c += int64(p.Cores) * int64(p.Cores) * 2 * int64(p.QueueLen) * 2
	c += int64(p.L1Lines) * int64(p.Cores)
	c += 600 / (p.TransferLatency + 1)
	c += 200/(p.EnqCost+1) + 200/(p.DeqCost+1)
	c += 400/(p.L1Hit+1) + 4000/(p.L1Miss+1)
	return c
}

// String renders the point compactly for reports and diagnostics.
func (p Point) String() string {
	return fmt.Sprintf("cores=%d q=%d lat=%d enq=%d deq=%d l1=%dx64B hit=%d miss=%d",
		p.Cores, p.QueueLen, p.TransferLatency, p.EnqCost, p.DeqCost, p.L1Lines, p.L1Hit, p.L1Miss)
}

// Grid spans the sweep: the cross product of its axes. An empty axis means
// "not swept" and is filled with the paper default by Normalize. Axis
// values keep their given order in the enumeration, so the point order —
// and therefore the surface layout — is exactly what the caller wrote.
type Grid struct {
	Cores           []int   `json:"cores,omitempty"`
	QueueLen        []int   `json:"queue_len,omitempty"`
	TransferLatency []int64 `json:"transfer_latency,omitempty"`
	EnqCost         []int64 `json:"enq_cost,omitempty"`
	DeqCost         []int64 `json:"deq_cost,omitempty"`
	L1Lines         []int   `json:"l1_lines,omitempty"`
	L1Hit           []int64 `json:"l1_hit,omitempty"`
	L1Miss          []int64 `json:"l1_miss,omitempty"`
}

// DefaultGrid is the grid a frontier query gets when it does not send one:
// the paper's operating point plus the levers its sensitivity figures
// actually move — transfer latency (Fig 13), queue capacity (the queue-
// length extension sweep), and the enqueue issue cost — at 4 cores. 90
// points, comfortably inside DefaultBudget.
func DefaultGrid() Grid {
	return Grid{
		Cores:           []int{4},
		QueueLen:        []int{1, 4, 8, 20, 64},
		TransferLatency: []int64{0, 1, 5, 20, 50, 100},
		EnqCost:         []int64{0, 1, 4},
	}
}

// ErrBadGrid is wrapped by every grid-validation failure.
var ErrBadGrid = errors.New("machspace: invalid grid")

// GridError is a structured grid rejection: the axis at fault and why.
type GridError struct {
	Axis   string
	Reason string
}

func (e *GridError) Error() string {
	return fmt.Sprintf("machspace: invalid grid: %s: %s", e.Axis, e.Reason)
}

func (e *GridError) Unwrap() error { return ErrBadGrid }

// Paper-default axis values, used for axes a grid does not sweep.
var paperDefault = func() Point {
	cfg := sim.DefaultConfig(4)
	return Point{
		Cores:           4,
		QueueLen:        cfg.QueueLen,
		TransferLatency: cfg.TransferLatency,
		EnqCost:         cfg.Cost.Enq,
		DeqCost:         cfg.Cost.Deq,
		L1Lines:         cfg.Cache.Lines,
		L1Hit:           cfg.Cost.L1Hit,
		L1Miss:          cfg.Cost.L1Miss,
	}
}()

// axisBounds keeps single axis values inside the envelope the service also
// enforces on /v1/run, so one hostile grid value cannot request a machine
// the simulator would take unbounded time or memory to model.
const (
	maxQueueLen = 1 << 12
	maxLatency  = 1 << 20
	maxL1Lines  = 1 << 20
)

// Normalize fills unswept axes with the paper defaults and validates every
// axis value, returning a *GridError naming the offending axis otherwise.
// maxCores bounds the Cores axis (0 = 16, the service default); the queue
// fabric is O(cores²), so it is a real resource bound, not a style check.
func (g Grid) Normalize(maxCores int) (Grid, error) {
	if maxCores <= 0 {
		maxCores = 16
	}
	fillI := func(axis []int, def int) []int {
		if len(axis) == 0 {
			return []int{def}
		}
		return axis
	}
	fill64 := func(axis []int64, def int64) []int64 {
		if len(axis) == 0 {
			return []int64{def}
		}
		return axis
	}
	g.Cores = fillI(g.Cores, paperDefault.Cores)
	g.QueueLen = fillI(g.QueueLen, paperDefault.QueueLen)
	g.TransferLatency = fill64(g.TransferLatency, paperDefault.TransferLatency)
	g.EnqCost = fill64(g.EnqCost, paperDefault.EnqCost)
	g.DeqCost = fill64(g.DeqCost, paperDefault.DeqCost)
	g.L1Lines = fillI(g.L1Lines, paperDefault.L1Lines)
	g.L1Hit = fill64(g.L1Hit, paperDefault.L1Hit)
	g.L1Miss = fill64(g.L1Miss, paperDefault.L1Miss)

	for _, c := range g.Cores {
		if c < 1 || c > maxCores {
			return Grid{}, &GridError{Axis: "cores", Reason: fmt.Sprintf("values must be in [1, %d], got %d", maxCores, c)}
		}
	}
	for _, q := range g.QueueLen {
		if q < 1 || q > maxQueueLen {
			return Grid{}, &GridError{Axis: "queue_len", Reason: fmt.Sprintf("values must be in [1, %d], got %d", maxQueueLen, q)}
		}
	}
	for axis, vals := range map[string][]int64{
		"transfer_latency": g.TransferLatency,
		"enq_cost":         g.EnqCost,
		"deq_cost":         g.DeqCost,
		"l1_hit":           g.L1Hit,
		"l1_miss":          g.L1Miss,
	} {
		for _, v := range vals {
			if v < 0 || v > maxLatency {
				return Grid{}, &GridError{Axis: axis, Reason: fmt.Sprintf("values must be in [0, %d], got %d", maxLatency, v)}
			}
		}
	}
	for _, l := range g.L1Lines {
		if l < 0 || l > maxL1Lines {
			return Grid{}, &GridError{Axis: "l1_lines", Reason: fmt.Sprintf("values must be in [0, %d] (0 disables the L1 model), got %d", maxL1Lines, l)}
		}
	}
	return g, nil
}

// Size is the number of points the grid enumerates (the product of its
// axis lengths). Meaningful after Normalize; empty axes count as 1.
func (g Grid) Size() int {
	n := 1
	for _, l := range []int{
		max(len(g.Cores), 1), max(len(g.QueueLen), 1), max(len(g.TransferLatency), 1),
		max(len(g.EnqCost), 1), max(len(g.DeqCost), 1), max(len(g.L1Lines), 1),
		max(len(g.L1Hit), 1), max(len(g.L1Miss), 1),
	} {
		n *= l
	}
	return n
}

// Points enumerates the cross product in a fixed deterministic order:
// cores vary slowest, then queue capacity, transfer latency, enqueue cost,
// dequeue cost, L1 lines, L1 hit, L1 miss fastest — each axis in the order
// the grid lists its values. Call on a normalized grid.
func (g Grid) Points() []Point {
	pts := make([]Point, 0, g.Size())
	for _, cores := range g.Cores {
		for _, q := range g.QueueLen {
			for _, lat := range g.TransferLatency {
				for _, enq := range g.EnqCost {
					for _, deq := range g.DeqCost {
						for _, lines := range g.L1Lines {
							for _, hit := range g.L1Hit {
								for _, miss := range g.L1Miss {
									pts = append(pts, Point{
										Cores: cores, QueueLen: q, TransferLatency: lat,
										EnqCost: enq, DeqCost: deq,
										L1Lines: lines, L1Hit: hit, L1Miss: miss,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}
