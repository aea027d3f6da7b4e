// Package search treats partitioning as a search problem. The paper commits
// to one greedy code-graph merging heuristic (internal/codegraph) and every
// downstream speedup inherits its choices; this package explores the
// neighborhood of that heuristic's partition with the simulator itself as
// the objective function, so the final partition is chosen by measured
// cycles rather than by a static affinity score.
//
// The explorer is seeded with the paper-heuristic partition and is
// *never worse by construction*: the seed is the first candidate evaluated,
// and the incumbent only changes when a candidate strictly beats it (ties
// resolve to the lexicographically smallest canonical partition encoding,
// which keeps the argmax deterministic). Two phases spend a shared
// evaluation budget:
//
//   - Beam search over a load-balance-aware move set: migrate a unit from
//     the costliest partition to the cheapest (the imbalance move), swap
//     boundary units between the two most-imbalanced partitions, and split
//     a merged cluster by peeling its cheapest unit onto every other core.
//     Moves operate on colocation units — fiber groups the dependence
//     analysis requires to stay together — so no candidate can violate a
//     hard placement constraint.
//   - Simulated-annealing refinement from the beam's incumbent: randomized
//     migrate/swap proposals drawn from a seeded generator, accepted by the
//     Metropolis rule on simulated cycles with a geometric cooling
//     schedule.
//
// Candidates are scored by an Objective the caller supplies; the compiler
// driver (internal/core) builds one that compiles the candidate through the
// normal outline → static-verify path and simulates it on the threaded
// engine, so an illegal partition is rejected by internal/verify before it
// is ever scored and a scored candidate is always a runnable program.
//
// Determinism: the proposal sequence depends only on (seed partition,
// Options.Seed, Options.Budget); every batch's random draws happen before
// any candidate in the batch is scored, and scored batches are folded in
// generation order. Workers therefore changes wall-clock only — the best
// partition and every reported statistic are byte-identical for any worker
// count, which the seeded-determinism tests pin under -race.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"fgp/internal/codegraph"
	"fgp/internal/deps"
)

// Objective scores one candidate partition, returning its simulated cycle
// count. An error marks the candidate infeasible (verifier rejection, trap,
// resource bound); the explorer discards it without updating the incumbent.
// Objectives must be safe for concurrent calls when Options.Workers > 1.
// Refine's first call scores the seed partition and returns before any
// other call starts.
type Objective func(ctx context.Context, cand *codegraph.Result) (int64, error)

// Options bounds and seeds one Refine run.
type Options struct {
	// Seed drives every random draw of the annealing phase. Same seed,
	// same budget => byte-identical outcome.
	Seed int64
	// Budget is the maximum number of objective evaluations, including the
	// seed partition's baseline evaluation. 0 selects DefaultBudget.
	Budget int
	// Beam is the beam width of the first phase (0 selects DefaultBeam).
	Beam int
	// Workers bounds concurrent objective evaluations (<= 1 is serial).
	// Refine starts that many scoring goroutines once, at most Budget, and
	// stops them before it returns. It cannot change the search outcome,
	// only host time.
	Workers int
	// Observer, when set, is called for every candidate the explorer
	// evaluates — seed included, winners and losers alike — with the
	// candidate's score or its rejection error. Calls happen on the
	// explorer goroutine in deterministic generation order.
	Observer func(cand *codegraph.Result, cycles int64, err error)
}

// DefaultBudget is the evaluation budget when Options.Budget is zero.
const DefaultBudget = 64

// DefaultBeam is the beam width when Options.Beam is zero.
const DefaultBeam = 4

// Result reports one Refine run.
type Result struct {
	// Best is the winning partition in canonical form. It equals the seed
	// partition when no explored candidate strictly improved on it.
	Best *codegraph.Result
	// BestCycles and SeedCycles are the simulated cycle counts of the
	// winner and of the heuristic seed; BestCycles <= SeedCycles always.
	BestCycles int64
	SeedCycles int64
	// Explored counts objective evaluations spent (seed included).
	Explored int
	// Rejected counts evaluated candidates the objective refused.
	Rejected int
	// Improved reports whether Best strictly beats the seed.
	Improved bool
}

// unit is an atomic placement group: one or more fibers the dependence
// analysis colocates (sibling branch arms), moved as a whole.
type unit struct {
	fibers []int32
	cost   int64
}

// state is one candidate: an assignment of units to partition labels. The
// canonical Result (and its key) is derived, never stored mutated.
type state struct {
	assign []int32
	res    *codegraph.Result
	key    string
	cycles int64
	err    error
}

type problem struct {
	units      []unit
	fiber2unit []int
	nparts     int
	// adj[u][v] is the undirected dependence-edge multiplicity between
	// units u and v, for boundary-aware swap ordering.
	adj  [][]int32
	obj  Objective
	opt  Options
	seen map[string]bool

	explored, rejected int
	best               *state
	observer           func(*state)

	// jobs feeds the scoring goroutines startWorkers starts (nil when
	// serial); batch counts the candidates of eval's batch still scoring.
	jobs  chan *state
	batch sync.WaitGroup
}

// Refine explores partitions of the analyzed function around the heuristic
// seed, scoring candidates with obj, and returns the best partition found.
// fiberCost[i] is the estimated compute cost of fiber i (the same costs the
// merge heuristics used); it orders the load-balance moves and fills the
// Cost field of candidate Results. Refine returns an error only for an
// invalid setup, a cancelled context, or a seed partition the objective
// itself cannot score.
func Refine(ctx context.Context, info *deps.Info, seed *codegraph.Result, fiberCost []int64, obj Objective, opt Options) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("search: objective is required")
	}
	if len(seed.Parts) == 0 {
		return nil, fmt.Errorf("search: seed partition is empty")
	}
	if opt.Budget <= 0 {
		opt.Budget = DefaultBudget
	}
	if opt.Beam <= 0 {
		opt.Beam = DefaultBeam
	}

	p := &problem{nparts: len(seed.Parts), obj: obj, opt: opt, seen: map[string]bool{}}
	p.buildUnits(info, seed, fiberCost)
	if opt.Observer != nil {
		p.observer = func(st *state) { opt.Observer(st.res, st.cycles, st.err) }
	}

	if opt.Workers > 1 {
		defer p.startWorkers(ctx)()
	}

	seedSt := p.fromParts(seed)
	p.seen[seedSt.key] = true
	if err := p.eval(ctx, []*state{seedSt}); err != nil {
		return nil, err
	}
	if seedSt.err != nil {
		// The heuristic partition itself cannot be scored (the kernel traps,
		// or a machine bound rejects it). There is no objective to optimize:
		// report the seed as the degenerate winner.
		return &Result{Best: seedSt.res, BestCycles: 0, SeedCycles: 0,
			Explored: p.explored, Rejected: p.rejected}, seedSt.err
	}
	p.best = seedSt
	seedCycles := seedSt.cycles

	// Phase 1: beam search until the move set dries up, improvement stalls,
	// or the beam share of the budget is spent.
	beamBudget := opt.Budget * 3 / 5
	if err := p.beamPhase(ctx, seedSt, beamBudget); err != nil {
		return nil, err
	}
	// Phase 2: simulated annealing from the incumbent with the rest.
	if err := p.annealPhase(ctx); err != nil {
		return nil, err
	}

	return &Result{
		Best:       p.best.res,
		BestCycles: p.best.cycles,
		SeedCycles: seedCycles,
		Explored:   p.explored,
		Rejected:   p.rejected,
		Improved:   p.best.cycles < seedCycles,
	}, nil
}

// buildUnits groups fibers into colocation units (union-find over the
// dependence analysis' Colocate pairs) and aggregates the edge multiset to
// unit granularity.
func (p *problem) buildUnits(info *deps.Info, seed *codegraph.Result, fiberCost []int64) {
	nf := len(seed.PartOf)
	parent := make([]int32, nf)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pair := range info.Colocate {
		a, b := find(pair[0]), find(pair[1])
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	root2unit := map[int32]int{}
	fiber2unit := make([]int, nf)
	for f := 0; f < nf; f++ {
		r := find(int32(f))
		u, ok := root2unit[r]
		if !ok {
			u = len(p.units)
			root2unit[r] = u
			p.units = append(p.units, unit{})
		}
		fiber2unit[f] = u
		p.units[u].fibers = append(p.units[u].fibers, int32(f))
		if f < len(fiberCost) {
			p.units[u].cost += fiberCost[f]
		}
	}
	p.fiber2unit = fiber2unit
	p.adj = make([][]int32, len(p.units))
	for i := range p.adj {
		p.adj[i] = make([]int32, len(p.units))
	}
	for _, fe := range info.FiberEdges() {
		a, b := fiber2unit[fe.From], fiber2unit[fe.To]
		if a != b {
			p.adj[a][b] += int32(fe.Count)
			p.adj[b][a] += int32(fe.Count)
		}
	}
}

// fromParts converts a Result into a unit assignment state.
func (p *problem) fromParts(r *codegraph.Result) *state {
	assign := make([]int32, len(p.units))
	for pi, fibers := range r.Parts {
		for _, f := range fibers {
			assign[p.fiber2unit[f]] = int32(pi)
		}
	}
	return p.finish(assign)
}

// finish canonicalizes an assignment into a state: partitions ordered by
// smallest fiber id (the codegraph.Merge output convention, which fixes
// which partition the primary core runs), fibers ascending within each.
func (p *problem) finish(assign []int32) *state {
	groups := make([][]int32, p.nparts)
	costs := make([]int64, p.nparts)
	for u, lbl := range assign {
		groups[lbl] = append(groups[lbl], p.units[u].fibers...)
		costs[lbl] += p.units[u].cost
	}
	type part struct {
		fibers []int32
		cost   int64
	}
	parts := make([]part, 0, p.nparts)
	for i, g := range groups {
		if len(g) == 0 {
			return nil // structural reject: a core with no work
		}
		sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
		parts = append(parts, part{g, costs[i]})
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].fibers[0] < parts[b].fibers[0] })
	res := &codegraph.Result{PartOf: make([]int32, len(p.fiber2unit))}
	for pi, pt := range parts {
		res.Parts = append(res.Parts, pt.fibers)
		res.Cost = append(res.Cost, pt.cost)
		for _, f := range pt.fibers {
			res.PartOf[f] = int32(pi)
		}
	}
	// Re-derive the assignment against canonical labels so move generation
	// is independent of the label history that produced this state.
	canon := make([]int32, len(p.units))
	for u := range p.units {
		canon[u] = res.PartOf[p.units[u].fibers[0]]
	}
	return &state{assign: canon, res: res, key: res.CanonicalKey()}
}

// propose returns finish(assign with u moved to part dst), or nil when the
// move is structurally illegal or already explored.
func (p *problem) propose(st *state, mutate func(assign []int32)) *state {
	assign := append([]int32(nil), st.assign...)
	mutate(assign)
	cand := p.finish(assign)
	if cand == nil || p.seen[cand.key] {
		return nil
	}
	p.seen[cand.key] = true
	return cand
}

// partOrder returns partition labels of st ordered by cost descending
// (ties to the smaller label), plus the per-part unit lists.
func (p *problem) partOrder(st *state) (byCostDesc []int32, members [][]int) {
	costs := make([]int64, p.nparts)
	members = make([][]int, p.nparts)
	for u, lbl := range st.assign {
		costs[lbl] += p.units[u].cost
		members[lbl] = append(members[lbl], u)
	}
	for lbl := 0; lbl < p.nparts; lbl++ {
		byCostDesc = append(byCostDesc, int32(lbl))
		// Units within a part ordered by cost descending, id ascending.
		m := members[lbl]
		sort.Slice(m, func(a, b int) bool {
			if p.units[m[a]].cost != p.units[m[b]].cost {
				return p.units[m[a]].cost > p.units[m[b]].cost
			}
			return m[a] < m[b]
		})
	}
	sort.Slice(byCostDesc, func(a, b int) bool {
		if costs[byCostDesc[a]] != costs[byCostDesc[b]] {
			return costs[byCostDesc[a]] > costs[byCostDesc[b]]
		}
		return byCostDesc[a] < byCostDesc[b]
	})
	return byCostDesc, members
}

// neighbors generates up to cap unseen candidates from st, in a fixed
// deterministic order: imbalance migrations first (costliest partition
// feeds the cheapest), then boundary swaps between the two most imbalanced
// partitions, then cluster splits (cheapest unit of the costliest
// partition offered to every other core).
func (p *problem) neighbors(st *state, cap int) []*state {
	if p.nparts < 2 {
		return nil
	}
	order, members := p.partOrder(st)
	var out []*state
	add := func(cand *state) bool {
		if cand != nil {
			out = append(out, cand)
		}
		return len(out) >= cap
	}

	// Migrations: walk (src, dst) pairs from most-imbalanced outward.
	for si := 0; si < len(order); si++ {
		src := order[si]
		if len(members[src]) < 2 {
			continue // would empty the source core
		}
		for di := len(order) - 1; di >= 0; di-- {
			dst := order[di]
			if dst == src {
				continue
			}
			for _, u := range members[src] {
				cand := p.propose(st, func(a []int32) { a[u] = dst })
				if add(cand) {
					return out
				}
				break // one unit per (src, dst) pair in the beam move set
			}
		}
	}

	// Boundary swaps between the costliest and cheapest partitions: prefer
	// unit pairs connected by dependence edges (swapping them moves the
	// communication boundary), heaviest unit out of the hot partition.
	hi, lo := order[0], order[len(order)-1]
	if hi != lo {
		for _, u := range members[hi] {
			for _, v := range members[lo] {
				if p.units[u].cost <= p.units[v].cost && p.adj[u][v] == 0 {
					continue
				}
				cand := p.propose(st, func(a []int32) { a[u], a[v] = lo, hi })
				if add(cand) {
					return out
				}
			}
		}
	}

	// Splits: peel the cheapest unit off the costliest mergeable partition
	// and offer it to every other core, not just the cheapest.
	for _, src := range order {
		if len(members[src]) < 2 {
			continue
		}
		cheapest := members[src][len(members[src])-1]
		for di := 0; di < len(order); di++ {
			if order[di] == src {
				continue
			}
			dst := order[di]
			cand := p.propose(st, func(a []int32) { a[cheapest] = dst })
			if add(cand) {
				return out
			}
		}
		break
	}
	return out
}

// beamPhase runs beam search, spending at most budget evaluations.
func (p *problem) beamPhase(ctx context.Context, seed *state, budget int) error {
	beam := []*state{seed}
	stall := 0
	for budget > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		perState := 3 * p.opt.Beam / len(beam)
		if perState < 2 {
			perState = 2
		}
		var cands []*state
		for _, st := range beam {
			n := p.neighbors(st, perState)
			cands = append(cands, n...)
		}
		if len(cands) == 0 {
			return nil
		}
		if len(cands) > budget {
			cands = cands[:budget]
		}
		if err := p.eval(ctx, cands); err != nil {
			return err
		}
		budget -= len(cands)

		prevBest := p.best
		pool := append(append([]*state(nil), beam...), scoredOK(cands)...)
		sortStates(pool)
		if len(pool) > p.opt.Beam {
			pool = pool[:p.opt.Beam]
		}
		beam = pool
		p.updateBest(cands)
		if p.best == prevBest {
			stall++
			if stall >= 2 {
				return nil
			}
		} else {
			stall = 0
		}
	}
	return nil
}

// annealPhase spends the remaining budget on Metropolis-accepted random
// moves from the incumbent. Proposals for a batch (moves and acceptance
// uniforms alike) are drawn before any scoring, and batches fold in
// generation order, so the outcome is independent of Workers.
func (p *problem) annealPhase(ctx context.Context) error {
	rng := rand.New(rand.NewSource(p.opt.Seed))
	cur := p.best
	temp := float64(cur.cycles) / 50
	if temp < 1 {
		temp = 1
	}
	const batchSize = 6
	misses := 0
	for p.explored < p.opt.Budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := p.opt.Budget - p.explored
		if n > batchSize {
			n = batchSize
		}
		type proposal struct {
			st *state
			u  float64
		}
		var batch []proposal
		for i := 0; i < 4*n && len(batch) < n; i++ {
			st := p.randomMove(rng, cur)
			u := rng.Float64()
			if st != nil {
				batch = append(batch, proposal{st, u})
			}
		}
		if len(batch) == 0 {
			misses++
			if misses >= 3 {
				return nil // neighborhood exhausted
			}
			continue
		}
		misses = 0
		sts := make([]*state, len(batch))
		for i := range batch {
			sts[i] = batch[i].st
		}
		if err := p.eval(ctx, sts); err != nil {
			return err
		}
		for _, pr := range batch {
			if pr.st.err != nil {
				continue
			}
			delta := float64(pr.st.cycles - cur.cycles)
			if delta < 0 || pr.u < math.Exp(-delta/temp) {
				cur = pr.st
				break // one acceptance per batch keeps the walk sequential
			}
		}
		p.updateBest(sts)
		temp *= 0.85
		if temp < 1 {
			temp = 1
		}
	}
	return nil
}

// randomMove draws one random migrate or swap from st (nil when the draw
// is structurally illegal or already seen).
func (p *problem) randomMove(rng *rand.Rand, st *state) *state {
	if len(p.units) < 2 || p.nparts < 2 {
		return nil
	}
	if rng.Intn(2) == 0 {
		// Migrate a random unit to a random other partition.
		u := rng.Intn(len(p.units))
		dst := int32(rng.Intn(p.nparts))
		if st.assign[u] == dst {
			return nil
		}
		// Reject emptying moves cheaply before canonicalization.
		cnt := 0
		for _, l := range st.assign {
			if l == st.assign[u] {
				cnt++
			}
		}
		if cnt < 2 {
			return nil
		}
		return p.propose(st, func(a []int32) { a[u] = dst })
	}
	u := rng.Intn(len(p.units))
	v := rng.Intn(len(p.units))
	if u == v || st.assign[u] == st.assign[v] {
		return nil
	}
	return p.propose(st, func(a []int32) { a[u], a[v] = a[v], a[u] })
}

// startWorkers starts the scoring goroutines, min(Workers, Budget) of
// them, for the whole Refine. It returns the function that stops them and
// waits until they have exited.
func (p *problem) startWorkers(ctx context.Context) func() {
	p.jobs = make(chan *state)
	var wg sync.WaitGroup
	n := min(p.opt.Workers, p.opt.Budget)
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for st := range p.jobs {
				st.cycles, st.err = p.obj(ctx, st.res)
				p.batch.Done()
			}
		}()
	}
	return func() {
		close(p.jobs)
		wg.Wait()
	}
}

// eval scores candidates with the objective: a batch of two or more on the
// scoring goroutines, Workers at a time, and otherwise on the calling
// goroutine. Observer callbacks and all bookkeeping happen on the calling
// goroutine in slice order after every score is in.
func (p *problem) eval(ctx context.Context, cands []*state) error {
	if p.jobs == nil || len(cands) < 2 {
		for _, st := range cands {
			st.cycles, st.err = p.obj(ctx, st.res)
		}
	} else {
		p.batch.Add(len(cands))
		for _, st := range cands {
			p.jobs <- st
		}
		p.batch.Wait()
	}
	for _, st := range cands {
		p.explored++
		if st.err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			p.rejected++
		}
		if p.observer != nil {
			p.observer(st)
		}
	}
	return nil
}

// updateBest folds scored candidates into the incumbent in slice order:
// strictly fewer cycles wins; equal cycles resolve to the smaller canonical
// key, so the argmax never depends on evaluation interleaving.
func (p *problem) updateBest(cands []*state) {
	for _, st := range cands {
		if st.err != nil {
			continue
		}
		if st.cycles < p.best.cycles || (st.cycles == p.best.cycles && st.key < p.best.key) {
			p.best = st
		}
	}
}

// scoredOK filters out rejected candidates.
func scoredOK(cands []*state) []*state {
	out := cands[:0:0]
	for _, st := range cands {
		if st.err == nil {
			out = append(out, st)
		}
	}
	return out
}

// sortStates orders by (cycles, canonical key) ascending.
func sortStates(sts []*state) {
	sort.Slice(sts, func(a, b int) bool {
		if sts[a].cycles != sts[b].cycles {
			return sts[a].cycles < sts[b].cycles
		}
		return sts[a].key < sts[b].key
	})
}
