package outline

import (
	"fmt"
	"sort"

	"fgp/internal/tac"
)

// planTransfers decides which values cross cores and where the queue
// operations go. It runs to a fixpoint: placing communication inside a
// branch forces both endpoint cores to replicate the branch skeleton, which
// in turn may require transferring the branch condition to a core that did
// not previously need it.
func (g *generator) planTransfers() error {
	g.trByTempDst = map[trKey]*transfer{}
	g.materialized = make([]map[int]bool, g.np)
	g.paramNeeds = make([][]tac.TempID, g.np)
	paramSeen := make([]map[tac.TempID]bool, g.np)
	g.constNeeds = make([]map[int]bool, g.np)
	for p := 0; p < g.np; p++ {
		g.materialized[p] = map[int]bool{0: true}
		paramSeen[p] = map[tac.TempID]bool{}
		g.constNeeds[p] = map[int]bool{}
	}

	needValue := func(t tac.TempID, p int) {
		info := &g.fn.Temps[t]
		if info.IsIndex {
			return // induction variable is replicated
		}
		defs := info.Defs
		if len(defs) == 0 {
			if info.IsParam {
				if !paramSeen[p][t] {
					paramSeen[p][t] = true
					g.paramNeeds[p] = append(g.paramNeeds[p], t)
				}
				return
			}
			// Unreachable for validated IR.
			return
		}
		dp := g.defsPart(t)
		if dp == p {
			return
		}
		// Loop-invariant literals are rematerialized locally instead of
		// being communicated.
		if len(defs) == 1 {
			if op := g.fn.Instrs[defs[0]].Op; op == tac.OpConstF || op == tac.OpConstI {
				g.constNeeds[p][defs[0]] = true
				return
			}
		}
		k := trKey{t, p}
		if _, ok := g.trByTempDst[k]; ok {
			return
		}
		g.trByTempDst[k] = &transfer{temp: t, src: dp, dst: p, class: info.K}
	}

	// Base needs: operand uses, and regions containing instructions.
	for _, in := range g.fn.Instrs {
		p := g.part[in.ID]
		var uses []tac.TempID
		uses = in.Uses(uses)
		for _, u := range uses {
			needValue(u, p)
		}
		for r := in.Region; r > 0; r = g.fn.Regions[r].Parent {
			g.materialized[p][r] = true
		}
	}

	// Memory-ordering tokens (fixed placement, appended to g.transfers).
	g.planTokens()

	// Fixpoint: communication placement regions force materialization;
	// materialized branches force condition availability.
	for round := 0; ; round++ {
		if round > len(g.fn.Regions)+4 {
			return fmt.Errorf("outline: transfer planning did not converge")
		}
		changed := false

		// Recompute placement regions for all transfers.
		for _, tr := range g.trByTempDst {
			region := g.placementRegion(tr)
			if region != tr.region || !tr.planned {
				tr.region = region
				tr.planned = true
				changed = true
			}
		}
		// Communication endpoints materialize the placement region (tokens,
		// already in g.transfers, included).
		materialize := func(tr *transfer) {
			for _, p := range [2]int{tr.src, tr.dst} {
				for r := tr.region; r > 0; r = g.fn.Regions[r].Parent {
					if !g.materialized[p][r] {
						g.materialized[p][r] = true
						changed = true
					}
				}
			}
		}
		for _, tr := range g.trByTempDst {
			materialize(tr)
		}
		for _, tr := range g.transfers {
			materialize(tr)
		}
		// Conditions of materialized regions must be available locally.
		before := len(g.trByTempDst)
		for p := 0; p < g.np; p++ {
			for r := range g.materialized[p] {
				if r == 0 {
					continue
				}
				needValue(g.fn.Regions[r].Cond, p)
			}
		}
		if len(g.trByTempDst) != before {
			changed = true
		}
		if !changed {
			break
		}
	}

	// Freeze the transfer list in a deterministic order and assign edges
	// and anchors. Token transfers come from a deterministic construction
	// and keep the anchors they were built with.
	for _, tr := range g.trByTempDst {
		g.transfers = append(g.transfers, tr)
	}
	sort.SliceStable(g.transfers, func(i, j int) bool {
		a, b := g.transfers[i], g.transfers[j]
		if a.temp != b.temp {
			return a.temp < b.temp
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.enqAfter.stmt < b.enqAfter.stmt
	})
	// A carried token that shares its hardware queue with any other traffic
	// must be primed to exactly one entry: with the enqueue closing the
	// sender's iteration and the dequeue opening the receiver's, the primed
	// stream P·S matches the dequeue stream R·P only for |P| = 1 (the
	// conjugacy matchFIFO verifies). Deeper priming is pure slack, so
	// clamping is always sound; a lone token on its queue keeps full depth.
	keyCount := map[pairKey]int{}
	for _, tr := range g.transfers {
		keyCount[g.keyOf(tr)]++
	}
	for _, tr := range g.transfers {
		if tr.token && tr.depth > 1 && keyCount[g.keyOf(tr)] > 1 {
			tr.depth = 1
		}
	}
	for _, tr := range g.transfers {
		tr.edge = g.newEdge()
		if tr.token {
			continue
		}
		if err := g.anchorTransfer(tr); err != nil {
			return err
		}
	}
	for p := range g.paramNeeds {
		sort.Slice(g.paramNeeds[p], func(i, j int) bool { return g.paramNeeds[p][i] < g.paramNeeds[p][j] })
	}

	// Accumulator parameters: a parameter the loop redefines is a
	// recurrence; its owning partition materializes the initial value in
	// its preheader.
	g.accInit = make([][]tac.TempID, g.np)
	for tid := range g.fn.Temps {
		t := &g.fn.Temps[tid]
		if t.IsParam && len(t.Defs) > 0 {
			p := g.defsPart(tac.TempID(tid))
			g.accInit[p] = append(g.accInit[p], tac.TempID(tid))
		}
	}
	return nil
}

// consumerRegions returns the regions of every consumer of tr's value on
// the destination partition: operand uses, plus the parents of materialized
// branch regions whose condition is the transferred temp.
func (g *generator) consumerRegions(tr *transfer) []int {
	var regions []int
	for _, id := range g.fn.Temps[tr.temp].Uses {
		if g.part[id] == tr.dst {
			regions = append(regions, g.fn.Instrs[id].Region)
		}
	}
	for r := range g.materialized[tr.dst] {
		if r != 0 && g.fn.Regions[r].Cond == tr.temp {
			regions = append(regions, g.fn.Regions[r].Parent)
		}
	}
	return regions
}

// placementRegion computes the lowest common control region of the value's
// definitions and all its consumers on the destination core.
func (g *generator) placementRegion(tr *transfer) int {
	region := -1
	join := func(r int) {
		if region < 0 {
			region = r
		} else {
			region = g.fn.LCA(region, r)
		}
	}
	for _, d := range g.fn.Temps[tr.temp].Defs {
		join(g.fn.Instrs[d].Region)
	}
	for _, r := range g.consumerRegions(tr) {
		join(r)
	}
	if region < 0 {
		region = 0
	}
	return region
}

// anchorTransfer fixes where in the placement region's item order the
// enqueue and dequeue go: the enqueue right after the latest item that can
// define the value, the dequeue right before the earliest item that
// consumes it.
func (g *generator) anchorTransfer(tr *transfer) error {
	fnR := g.fn.Regions

	// Enqueue anchor: latest def, projected to the placement region level.
	var enq anchor
	enqSet := false
	for _, d := range g.fn.Temps[tr.temp].Defs {
		in := g.fn.Instrs[d]
		var a anchor
		if in.Region == tr.region {
			a = instrAnchor(in)
		} else {
			sub := g.fn.AncestorAt(in.Region, tr.region)
			if sub < 0 {
				return fmt.Errorf("outline: def of %s not under placement region", g.fn.TempName(tr.temp))
			}
			a = subtreeAnchor(fnR, sub)
		}
		if !enqSet || a.stmt > enq.stmt {
			enq = a
			enqSet = true
		}
	}
	if !enqSet {
		return fmt.Errorf("outline: transfer of def-less temp %s", g.fn.TempName(tr.temp))
	}
	tr.enqAfter = enq

	// Dequeue anchor: earliest consumer, projected to the placement region.
	var deq anchor
	deqSet := false
	consider := func(a anchor) {
		if !deqSet || a.stmt < deq.stmt {
			deq = a
			deqSet = true
		}
	}
	for _, id := range g.fn.Temps[tr.temp].Uses {
		in := g.fn.Instrs[id]
		if g.part[id] != tr.dst {
			continue
		}
		if in.Region == tr.region {
			consider(instrAnchor(in))
		} else if sub := g.fn.AncestorAt(in.Region, tr.region); sub >= 0 {
			consider(subtreeAnchor(fnR, sub))
		}
	}
	for r := range g.materialized[tr.dst] {
		if r == 0 || fnR[r].Cond != tr.temp {
			continue
		}
		// The consumer is the branch item for region r, which sits in r's
		// parent. The placement region is an ancestor of (or equal to) that
		// parent by construction.
		if parent := fnR[r].Parent; parent == tr.region {
			consider(subtreeAnchor(fnR, r))
		} else if sub := g.fn.AncestorAt(parent, tr.region); sub >= 0 {
			consider(subtreeAnchor(fnR, sub))
		}
	}
	if !deqSet {
		return fmt.Errorf("outline: transfer of %s to part %d has no consumer", g.fn.TempName(tr.temp), tr.dst)
	}
	tr.deqBefore = deq
	return nil
}
