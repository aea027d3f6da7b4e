package outline

import (
	"sort"

	"fgp/internal/deps"
	"fgp/internal/ir"
	"fgp/internal/tac"
)

// defaultTokenDepth caps queue priming well below the 20-slot queue
// capacity. A deeper real dependence distance only means more available
// slack, so clamping is always sound.
const defaultTokenDepth = 8

// Sentinel anchor positions for carried tokens: the dequeue opens the
// iteration, the enqueue closes it.
const (
	startOfIteration = -1
	endOfIteration   = 1 << 28
)

// tokenReq is one directed memory-ordering requirement between partitions:
// the consumer instruction at iteration i must execute after the producer
// instruction at iteration i-depth (depth 0: same iteration).
type tokenReq struct {
	producer, consumer int
	depth              int
}

// planTokens converts cross-partition memory dependences into
// synchronization-token transfers. It runs after partitions are fixed and
// before the region-materialization fixpoint uses transfer placements.
func (g *generator) planTokens() {
	var reqs []tokenReq
	seen := map[[2]int]int{} // (producer, consumer) -> index into reqs
	cap := g.opt.TokenDepthCap
	if cap <= 0 {
		cap = defaultTokenDepth
	}
	add := func(producer, consumer, depth int) {
		if g.part[producer] == g.part[consumer] {
			return // same core: program order already enforces it
		}
		if depth > cap {
			depth = cap
		}
		key := [2]int{producer, consumer}
		if i, ok := seen[key]; ok {
			if depth < reqs[i].depth {
				reqs[i].depth = depth
			}
			return
		}
		seen[key] = len(reqs)
		reqs = append(reqs, tokenReq{producer, consumer, depth})
	}
	for _, e := range g.info.Edges {
		if e.Kind != deps.Mem {
			continue
		}
		switch {
		case !e.Carried:
			add(e.From, e.To, 0)
		case e.MemKnown && e.MemDist > 0:
			add(e.From, e.To, int(e.MemDist))
		case e.MemKnown && e.MemDist < 0:
			add(e.To, e.From, int(-e.MemDist))
		default:
			// Unknown distance/direction: bound the slip between the two
			// accesses to one iteration in both directions.
			add(e.From, e.To, 1)
			add(e.To, e.From, 1)
		}
	}
	if len(reqs) == 0 {
		return
	}

	// Group by core pair, then coalesce requirements into few tokens per
	// iteration. Same-iteration requirements may only merge while the
	// latest producer still precedes the earliest consumer; carried
	// requirements (depth >= 1) have slack and merge freely.
	byPair := map[[2]int][]tokenReq{}
	for _, r := range reqs {
		k := [2]int{g.part[r.producer], g.part[r.consumer]}
		byPair[k] = append(byPair[k], r)
	}
	var pairKeys [][2]int
	for k := range byPair {
		pairKeys = append(pairKeys, k)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		a, b := pairKeys[i], pairKeys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})

	for _, pk := range pairKeys {
		group := byPair[pk]
		var immediate, carried []tokenReq
		for _, r := range group {
			if r.depth == 0 {
				immediate = append(immediate, r)
			} else {
				carried = append(carried, r)
			}
		}
		// Carried: one token for the whole pair, placed canonically — the
		// enqueue closes the sender's iteration and the dequeue opens the
		// receiver's. With depth primed entries this rotates cleanly
		// through the shared FIFO alongside the pair's other traffic.
		if len(carried) > 0 {
			depth := carried[0].depth
			for _, r := range carried[1:] {
				if r.depth < depth {
					depth = r.depth
				}
			}
			g.transfers = append(g.transfers, &transfer{
				temp: tac.None, src: pk[0], dst: pk[1], region: 0, class: ir.I64,
				planned: true, token: true, depth: depth,
				enqAfter:  anchor{instr: -1, subtree: -1, stmt: endOfIteration},
				deqBefore: anchor{instr: -1, subtree: -1, stmt: startOfIteration},
			})
		}
		// Immediate: greedy coalescing, with feasibility tested exactly the
		// way the merged token will be anchored — producers and consumers
		// projected to the group's lowest common region. (Raw positions are
		// not enough: two accesses in opposite branches of one If project
		// onto colliding branch-item anchors.)
		sort.Slice(immediate, func(i, j int) bool {
			pi := g.instrPos(immediate[i].consumer)
			pj := g.instrPos(immediate[j].consumer)
			return less(pi, pj)
		})
		for len(immediate) > 0 {
			producers := []int{immediate[0].producer}
			consumers := []int{immediate[0].consumer}
			var next []tokenReq
			for _, r := range immediate[1:] {
				// Probe with r appended; drop it again if it does not fit.
				producers, consumers = append(producers, r.producer), append(consumers, r.consumer)
				if g.tokenAnchorsFeasible(producers, consumers) {
					continue
				}
				producers, consumers = producers[:len(producers)-1], consumers[:len(consumers)-1]
				next = append(next, r)
			}
			g.emitToken(pk[0], pk[1], 0, producers, consumers)
			immediate = next
		}
	}
}

// tokenAnchorsFeasible reports whether one token covering the given
// producers and consumers can be anchored with its enqueue no later than
// its dequeue, using the same projection emitToken will use.
func (g *generator) tokenAnchorsFeasible(producers, consumers []int) bool {
	region, enq, deq := g.tokenAnchors(producers, consumers)
	_ = region
	return !less(g.anchorPos(deq, -1), g.anchorPos(enq, +1))
}

// tokenAnchors computes the placement region and projected anchors for a
// token over the given accesses.
func (g *generator) tokenAnchors(producers, consumers []int) (int, anchor, anchor) {
	region := -1
	join := func(r int) {
		if region < 0 {
			region = r
		} else {
			region = g.fn.LCA(region, r)
		}
	}
	for _, p := range producers {
		join(g.fn.Instrs[p].Region)
	}
	for _, c := range consumers {
		join(g.fn.Instrs[c].Region)
	}
	project := func(id int) anchor {
		in := g.fn.Instrs[id]
		if in.Region == region {
			return instrAnchor(in)
		}
		return subtreeAnchor(g.fn.Regions, g.fn.AncestorAt(in.Region, region))
	}
	enq := project(producers[0])
	for _, p := range producers[1:] {
		if a := project(p); less(g.anchorPos(enq, +1), g.anchorPos(a, +1)) {
			enq = a
		}
	}
	deq := project(consumers[0])
	for _, c := range consumers[1:] {
		if a := project(c); less(g.anchorPos(a, -1), g.anchorPos(deq, -1)) {
			deq = a
		}
	}
	return region, enq, deq
}

func (g *generator) instrPos(id int) itemPos {
	in := g.fn.Instrs[id]
	return itemPos{stmt: in.Stmt, rank: 0, id: id}
}

// emitToken appends one token transfer with anchors projected to the
// lowest common region of all involved accesses.
func (g *generator) emitToken(src, dst, depth int, producers, consumers []int) {
	region, enq, deq := g.tokenAnchors(producers, consumers)
	g.transfers = append(g.transfers, &transfer{
		temp: tac.None, src: src, dst: dst, region: region, class: ir.I64,
		planned: true, token: true, depth: depth,
		enqAfter: enq, deqBefore: deq,
		prodIDs: producers, consIDs: consumers,
	})
}
