// The sweep engine: run every grid point of one kernel through the real
// compile-and-simulate pipeline and collect the speedup surface.
//
// Artifacts and sequential baselines resolve through the experiment
// runner's content-addressed cache (internal/artcache), addressed by the
// canonical compile options (core.CanonicalOptions). Compile-relevant
// levers (core count, queue capacity — token priming must fit — the
// partitioner, and under search the transfer latency; see the package
// comment) are part of an artifact's address, so a heuristic grid with 6
// latencies and 3 enqueue costs per (cores, queue) cell compiles each cell
// once and simulates 18 times. Run-only levers (transfer latency, issue
// costs, L1 geometry and latencies) are applied to the machine
// configuration at simulation time, exactly like the paper's Fig 13
// latency sweep. The sequential baseline is a cache entry per distinct
// one-core machine — a point with a tiny L1 slows the one-core machine
// down too, and an honest speedup divides by that machine's own baseline.
// Because the cache is shared, fgpd's /v1/run of a swept point, and a
// sweep of a point already compiled, compile nothing. Each point's result
// resolves through the runner's simulation memo (Runner.Simulate), so a
// point already simulated, by an earlier sweep or an experiment, is not
// simulated again.

package machspace

import (
	"context"
	"errors"
	"fmt"

	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// DefaultBudget bounds a sweep's point count when Options.Budget is 0.
const DefaultBudget = 512

// ErrBudget is wrapped by sweeps whose grid exceeds the point budget.
var ErrBudget = errors.New("machspace: grid exceeds sweep budget")

// BudgetError reports a grid too large for the sweep budget.
type BudgetError struct {
	Points, Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("machspace: grid enumerates %d points, budget is %d", e.Points, e.Budget)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// Options parameterizes a sweep.
type Options struct {
	// Budget bounds the number of grid points (0 = DefaultBudget). A grid
	// past the budget is refused up front with a *BudgetError — never
	// silently truncated.
	Budget int
	// Workers bounds concurrent point simulations (0 = one per CPU, 1 =
	// serial). It changes wall-clock time only: the surface is byte-
	// identical for any worker count.
	Workers int
	// MaxCores bounds the grid's Cores axis (0 = 16, matching the service
	// default); see Grid.Normalize.
	MaxCores int
	// Partitioner selects the partition selector for every compiled point
	// ("" or "heuristic" for the paper's greedy merge, "search" for the
	// simulator-guided refinement); SearchSeed and SearchBudget configure
	// the latter.
	Partitioner  string
	SearchSeed   int64
	SearchBudget int
}

// PointResult is one cell of the surface. Exactly one of (Cycles > 0) and
// (Reject != "") holds: a point the pipeline rejects — the machine
// validator, the verifier, or a simulated trap — carries the bounded
// diagnostic instead of numbers and is excluded from the frontier.
type PointResult struct {
	Point     Point   `json:"config"`
	HWCost    int64   `json:"hw_cost"`
	Cycles    int64   `json:"cycles,omitempty"`
	SeqCycles int64   `json:"seq_cycles,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	Reject    string  `json:"reject,omitempty"`
}

// OK reports whether the point simulated successfully.
func (p *PointResult) OK() bool { return p.Reject == "" }

// Surface is one kernel's swept speedup surface, points in Grid.Points
// order.
type Surface struct {
	Kernel string        `json:"kernel"`
	Grid   Grid          `json:"grid"`
	Points []PointResult `json:"points"`
}

// Rejected counts the points the pipeline refused.
func (s *Surface) Rejected() int {
	n := 0
	for i := range s.Points {
		if !s.Points[i].OK() {
			n++
		}
	}
	return n
}

// maxRejectBytes bounds one point's rejection diagnostic (deadlock dumps
// are multi-line machine states; the surface keeps the head).
const maxRejectBytes = 512

func boundReject(msg string) string {
	if len(msg) <= maxRejectBytes {
		return msg
	}
	return fmt.Sprintf("%s... (%d bytes truncated)", msg[:maxRejectBytes], len(msg)-maxRejectBytes)
}

// Sweep runs the grid for one kernel and returns its surface. The grid is
// normalized (unswept axes filled with paper defaults) and budget-checked
// before any work; each point then resolves its artifact and sequential
// baseline through r's cache and its result through r's simulation memo,
// under ctx, which cancels the sweep within one cancellation stride. Same
// grid and options ⇒ byte-identical surface, for any Workers.
func Sweep(ctx context.Context, r *experiments.Runner, k *kernels.Kernel, g Grid, opt Options) (*Surface, error) {
	ng, err := g.Normalize(opt.MaxCores)
	if err != nil {
		return nil, err
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	if n := ng.Size(); n > budget {
		return nil, &BudgetError{Points: n, Budget: budget}
	}
	pts := ng.Points()
	surf := &Surface{Kernel: k.Name, Grid: ng, Points: make([]PointResult, len(pts))}

	err = experiments.ParallelEach(len(pts), opt.Workers, func(i int) error {
		p := pts[i]
		out := &surf.Points[i]
		out.Point = p
		out.HWCost = p.HWCost()

		// Gate the machine configuration before any compile work.
		if verr := p.Validate(); verr != nil {
			out.Reject = boundReject(verr.Error())
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}

		// Compile-relevant levers address the artifact; the point
		// simulates on its whole machine, p.Config(). The search scores
		// its candidates on the compile machine, so that machine carries
		// the point's transfer latency; the heuristic's address drops it.
		copt := experiments.Variant{
			Cores:        p.Cores,
			Partitioner:  opt.Partitioner,
			SearchSeed:   opt.SearchSeed,
			SearchBudget: opt.SearchBudget,
		}.Options()
		mc := sim.DefaultConfig(p.Cores)
		mc.QueueLen = p.QueueLen
		mc.TransferLatency = p.TransferLatency
		copt.Machine = &mc
		a, addr, _, err := r.ArtifactContext(ctx, k, copt)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			out.Reject = boundReject(err.Error())
			return nil
		}

		res, _, err := r.Simulate(ctx, a, addr, p.Config())
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			out.Reject = boundReject(err.Error())
			return nil
		}
		smc := sim.DefaultConfig(1)
		smc.Cache.Lines = p.L1Lines
		smc.Cost.L1Hit = p.L1Hit
		smc.Cost.L1Miss = p.L1Miss
		seq, _, err := r.SeqCyclesContext(ctx, k, smc)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// A baseline that traps fails the whole kernel, not one point:
			// no point of this surface has a denominator.
			return fmt.Errorf("machspace: %s: sequential baseline: %w", k.Name, err)
		}
		out.Cycles = res.Cycles
		out.SeqCycles = seq
		out.Speedup = float64(seq) / float64(res.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return surf, nil
}
