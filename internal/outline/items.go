package outline

import (
	"fmt"
	"slices"
	"sort"

	"fgp/internal/ir"
	"fgp/internal/tac"
)

// itemPos is the total order of items within one region: source statement
// first, then instructions before branch skeletons of the same statement,
// then instruction id.
type itemPos struct {
	stmt int
	rank int // 0 = instruction, 1 = branch
	id   int
	side int // -1 dequeues-before, 0 the item itself, +1 enqueues-after
}

func less(a, b itemPos) bool {
	if a.stmt != b.stmt {
		return a.stmt < b.stmt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.side < b.side
}

func (g *generator) anchorPos(a anchor, side int) itemPos {
	if a.instr >= 0 {
		return itemPos{stmt: a.stmt, rank: 0, id: a.instr, side: side}
	}
	return itemPos{stmt: a.stmt, rank: 1, id: 1 << 30, side: side}
}

// hoistable reports whether a literal-producing instruction is emitted in
// loop preheaders (loop-invariant rematerialization) rather than in region
// bodies.
func (g *generator) hoistable(in *tac.Instr) bool {
	if in.Op != tac.OpConstF && in.Op != tac.OpConstI {
		return false
	}
	return len(g.fn.Temps[in.Dst].Defs) == 1
}

// buildItems constructs each partition's per-region ordered item lists:
// its own instructions, replicated branch skeletons, and the planned queue
// operations.
func (g *generator) buildItems() error {
	g.items = make([]map[int][]*item, g.np)
	for p := 0; p < g.np; p++ {
		g.items[p] = map[int][]*item{}
	}

	// Base instruction items (literals are hoisted to preheaders).
	for _, in := range g.fn.Instrs {
		p := g.part[in.ID]
		if g.hoistable(in) {
			// The owning part also rematerializes it in the preheader.
			if g.usedByPart(in.Dst, p) {
				g.constNeeds[p][in.ID] = true
			}
			continue
		}
		g.items[p][in.Region] = append(g.items[p][in.Region],
			&item{kind: itInstr, instr: in.ID, stmt: in.Stmt})
	}

	// Branch skeleton items: for every materialized guarded region, its
	// parent gets one branch item per If (then/else regions grouped by the
	// owning statement).
	type ifKey struct {
		parent int
		stmt   int
	}
	for p := 0; p < g.np; p++ {
		branches := map[ifKey]*item{}
		for r := range g.materialized[p] {
			if r == 0 {
				continue
			}
			reg := &g.fn.Regions[r]
			k := ifKey{reg.Parent, reg.Stmt}
			b, ok := branches[k]
			if !ok {
				b = &item{kind: itBranch, thenRegion: -1, elseRegion: -1, cond: reg.Cond, stmt: reg.Stmt}
				branches[k] = b
				g.items[p][reg.Parent] = append(g.items[p][reg.Parent], b)
			}
			if reg.Sense {
				b.thenRegion = r
			} else {
				b.elseRegion = r
			}
			if _, ok := g.items[p][r]; !ok {
				g.items[p][r] = nil // ensure the region list exists
			}
		}
	}

	// Order base items.
	for p := 0; p < g.np; p++ {
		for r := range g.items[p] {
			its := g.items[p][r]
			sort.SliceStable(its, func(i, j int) bool { return less(g.posOf(its[i]), g.posOf(its[j])) })
			g.items[p][r] = its
		}
	}

	// Insert queue operations at their anchors.
	for _, tr := range g.transfers {
		if !tr.token || tr.depth == 0 {
			// Carried tokens legitimately dequeue "before" their enqueue
			// position — the priming entries supply the slack. Everything
			// else must enqueue no later than it dequeues.
			enqPos := g.anchorPos(tr.enqAfter, +1)
			deqPos := g.anchorPos(tr.deqBefore, -1)
			if less(deqPos, enqPos) {
				return fmt.Errorf("outline: transfer of %s (part %d -> %d, token=%v depth=%d, region %d) would dequeue (anchor instr %d/subtree %d stmt %d) before its enqueue (anchor instr %d/subtree %d stmt %d); unsupported cross-branch pattern",
					g.fn.TempName(tr.temp), tr.src, tr.dst, tr.token, tr.depth, tr.region,
					tr.deqBefore.instr, tr.deqBefore.subtree, tr.deqBefore.stmt,
					tr.enqAfter.instr, tr.enqAfter.subtree, tr.enqAfter.stmt)
			}
		}
		if err := g.insertAt(tr.src, tr.region, &item{kind: itEnq, tr: tr, stmt: tr.enqAfter.stmt}, tr.enqAfter, true); err != nil {
			return err
		}
		if err := g.insertAt(tr.dst, tr.region, &item{kind: itDeq, tr: tr, stmt: tr.deqBefore.stmt}, tr.deqBefore, false); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) posOf(it *item) itemPos {
	switch it.kind {
	case itInstr:
		return itemPos{stmt: it.stmt, rank: 0, id: it.instr}
	case itBranch:
		return itemPos{stmt: it.stmt, rank: 1, id: 1 << 30}
	case itEnq:
		return g.anchorPos(it.tr.enqAfter, +1)
	default:
		return g.anchorPos(it.tr.deqBefore, -1)
	}
}

// usedByPart reports whether any instruction of partition p reads temp t.
func (g *generator) usedByPart(t tac.TempID, p int) bool {
	return slices.ContainsFunc(g.fn.Temps[t].Uses, func(id int) bool { return g.part[id] == p })
}

// insertAt places a queue-op item immediately after (after=true) or before
// its anchor item in the region list. Sentinel anchors (carried tokens)
// place at the very start or end of the region.
func (g *generator) insertAt(p, region int, it *item, a anchor, after bool) error {
	its := g.items[p][region]
	if a.instr < 0 && a.subtree < 0 {
		if a.stmt >= endOfIteration {
			g.items[p][region] = append(its, it)
		} else {
			its = append([]*item{it}, its...)
			g.items[p][region] = its
		}
		return nil
	}
	idx := -1
	for i, cand := range its {
		if a.instr >= 0 {
			if cand.kind == itInstr && cand.instr == a.instr {
				idx = i
				break
			}
		} else if cand.kind == itBranch && (cand.thenRegion == a.subtree || cand.elseRegion == a.subtree) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("outline: anchor not found for %s on part %d in region %d (instr %d, subtree %d)",
			g.fn.TempName(it.tr.temp), p, region, a.instr, a.subtree)
	}
	pos := idx
	if after {
		pos = idx + 1
	}
	its = append(its, nil)
	copy(its[pos+1:], its[pos:])
	its[pos] = it
	g.items[p][region] = its
	return nil
}

// pairKey identifies one hardware queue at the partition level.
type pairKey struct {
	src, dst int
	class    int // 0 = FPR, 1 = GPR
}

func (g *generator) keyOf(tr *transfer) pairKey {
	c := 0
	if tr.class == ir.I64 {
		c = 1
	}
	return pairKey{tr.src, tr.dst, c}
}

// seqTok is one element of a projected communication sequence: either a
// queue operation (edge >= 0) or a branch marker (stmt of the If).
type seqTok struct {
	edge   int32 // -1 for markers
	marker int   // If statement ordinal for markers
}

// projectSeq walks a region's items and returns the communication sequence
// for one queue: edges of matching enqueues (sender side) or dequeues
// (receiver side), with markers for branch items whose subtrees contain
// matching operations.
func (g *generator) projectSeq(p, region int, key pairKey, sender bool) []seqTok {
	var out []seqTok
	for _, it := range g.items[p][region] {
		switch it.kind {
		case itEnq:
			if sender && g.keyOf(it.tr) == key {
				out = append(out, seqTok{edge: it.tr.edge})
			}
		case itDeq:
			if !sender && g.keyOf(it.tr) == key {
				out = append(out, seqTok{edge: it.tr.edge})
			}
		case itBranch:
			if g.subtreeHasKey(p, it, key, sender) {
				out = append(out, seqTok{edge: -1, marker: it.stmt})
			}
		}
	}
	return out
}

func (g *generator) subtreeHasKey(p int, b *item, key pairKey, sender bool) bool {
	for _, r := range [2]int{b.thenRegion, b.elseRegion} {
		if r < 0 {
			continue
		}
		for _, it := range g.items[p][r] {
			switch it.kind {
			case itEnq:
				if sender && g.keyOf(it.tr) == key {
					return true
				}
			case itDeq:
				if !sender && g.keyOf(it.tr) == key {
					return true
				}
			case itBranch:
				if g.subtreeHasKey(p, it, key, sender) {
					return true
				}
			}
		}
	}
	return false
}

// matchFIFO verifies, for every queue and every control region, that the
// receiver dequeues values in exactly the order the sender enqueues them,
// repairing order differences by hoisting dequeues earlier (always safe:
// a dequeue may block arbitrarily early, and the guard in buildItems
// ensures no dequeue needs to move later).
//
// Carried tokens complicate the top-level region: their queues are primed
// with P slack entries before the loop and drained after it, so the
// dynamic streams are P·S·S·… on the sender and R·R·…·P on the receiver.
// Those agree for every trip count exactly when P·S == R·P (the standard
// conjugacy criterion for x·uⁿ == vⁿ·x with |u| == |v|), which
// degenerates to plain S == R on queues without priming.
func (g *generator) matchFIFO() error {
	keys := map[pairKey]bool{}
	for _, tr := range g.transfers {
		keys[g.keyOf(tr)] = true
	}
	orderedKeys := make([]pairKey, 0, len(keys))
	for k := range keys {
		orderedKeys = append(orderedKeys, k)
	}
	sort.Slice(orderedKeys, func(i, j int) bool {
		a, b := orderedKeys[i], orderedKeys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.class < b.class
	})
	for _, key := range orderedKeys {
		// Collect all regions containing ops for this key on either side.
		regions := map[int]bool{}
		for _, tr := range g.transfers {
			if g.keyOf(tr) == key {
				regions[tr.region] = true
			}
		}
		regionList := make([]int, 0, len(regions))
		for r := range regions {
			regionList = append(regionList, r)
		}
		sort.Ints(regionList)
		for _, r := range regionList {
			if err := g.matchRegion(key, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// primerSeq returns the queue-priming entries emitted in the preheader for
// one queue: every carried token's edge, repeated depth times, in transfer
// order (the order emitBody primes them). Only the top-level region sees
// primed queues.
func (g *generator) primerSeq(key pairKey, region int) []seqTok {
	if region != 0 {
		return nil
	}
	var out []seqTok
	for _, tr := range g.transfers {
		if tr.token && tr.depth > 0 && g.keyOf(tr) == key {
			for k := 0; k < tr.depth; k++ {
				out = append(out, seqTok{edge: tr.edge})
			}
		}
	}
	return out
}

// conjugate reports whether the primed enqueue stream matches the dequeue
// stream for every trip count: p·s·s·… == r·r·…·p, equivalent to the
// finite check p·s == r·p (plain s == r when nothing is primed).
func conjugate(p, s, r []seqTok) bool {
	if len(s) != len(r) {
		return false
	}
	if len(p) == 0 {
		return seqEqual(s, r)
	}
	ps := append(append([]seqTok{}, p...), s...)
	rp := append(append([]seqTok{}, r...), p...)
	return seqEqual(ps, rp)
}

func (g *generator) matchRegion(key pairKey, region int) error {
	se := g.projectSeq(key.src, region, key, true)
	re := g.projectSeq(key.dst, region, key, false)
	primers := g.primerSeq(key, region)
	if conjugate(primers, se, re) {
		return nil
	}
	// Multisets must match even when order differs (primers cancel).
	if !seqSameMultiset(se, re) {
		return fmt.Errorf("outline: queue %d->%d class %d region %d: enqueue tokens %v != dequeue tokens %v",
			key.src, key.dst, key.class, region, se, re)
	}
	// The only receiver order satisfying P·S == R·P is the first |S|
	// tokens of P·S — well-defined only when P·S ends with P (guaranteed
	// by depth-1 clamping plus end-of-iteration carried enqueues; anything
	// else is statically uncompilable on a shared FIFO).
	required := se
	if len(primers) > 0 {
		ps := append(append([]seqTok{}, primers...), se...)
		if !seqEqual(ps[len(se):], primers) {
			return fmt.Errorf("outline: queue %d->%d class %d region %d: primed tokens %v cannot interleave with traffic %v on one FIFO",
				key.src, key.dst, key.class, region, primers, se)
		}
		required = ps[:len(se)]
	}
	// Rebuild the receiver's dequeue placement to the required order with
	// an as-late-as-possible sweep: each dequeue's deadline is its current
	// (before-first-consumer) position; walking the required sequence in
	// reverse, every dequeue lands at the minimum of its own deadline and
	// the slot of its successor. Dequeues only move earlier, each by the
	// least amount that restores FIFO order — placing them any earlier
	// (e.g. hoisting the whole group) can deadlock against values this
	// core must send before the partner can produce the awaited one.
	its := g.items[key.dst][region]
	var kept []*item
	deqOf := map[int32]*item{}
	origSlot := map[int32]int{} // edge -> index into kept where the deq sat
	for _, it := range its {
		if it.kind == itDeq && g.keyOf(it.tr) == key {
			deqOf[it.tr.edge] = it
			origSlot[it.tr.edge] = len(kept)
			continue
		}
		kept = append(kept, it)
	}
	// Positions (in kept) of the branch items this key's traffic flows
	// through, in order; a dequeue whose sender enqueues before marker m
	// must also land before m.
	var markerPos []int
	for i, it := range kept {
		if it.kind == itBranch && g.subtreeHasKey(key.dst, it, key, false) {
			markerPos = append(markerPos, i)
		}
	}
	var senderEdges []int32
	var nextMarker []int // markers already passed when each edge is sent
	seenMarkers := 0
	for _, tok := range required {
		if tok.edge < 0 {
			seenMarkers++
			continue
		}
		senderEdges = append(senderEdges, tok.edge)
		nextMarker = append(nextMarker, seenMarkers)
	}
	slot := make([]int, len(senderEdges))
	bound := len(kept)
	for k := len(senderEdges) - 1; k >= 0; k-- {
		s := origSlot[senderEdges[k]]
		if m := nextMarker[k]; m < len(markerPos) && s > markerPos[m] {
			s = markerPos[m]
		}
		if s > bound {
			s = bound
		}
		slot[k] = s
		bound = s
	}
	var out []*item
	next := 0
	for i := 0; i <= len(kept); i++ {
		for next < len(senderEdges) && slot[next] == i {
			out = append(out, deqOf[senderEdges[next]])
			next++
		}
		if i < len(kept) {
			out = append(out, kept[i])
		}
	}
	g.items[key.dst][region] = out

	// Re-verify.
	se2 := g.projectSeq(key.src, region, key, true)
	re2 := g.projectSeq(key.dst, region, key, false)
	if !conjugate(primers, se2, re2) {
		return fmt.Errorf("outline: queue %d->%d class %d region %d: FIFO repair failed (%v vs %v, primed %v)",
			key.src, key.dst, key.class, region, se2, re2, primers)
	}
	return nil
}

func seqEqual(a, b []seqTok) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqSameMultiset(a, b []seqTok) bool {
	ca := map[seqTok]int{}
	for _, t := range a {
		ca[t]++
	}
	for _, t := range b {
		ca[t]--
	}
	for _, n := range ca {
		if n != 0 {
			return false
		}
	}
	return true
}
