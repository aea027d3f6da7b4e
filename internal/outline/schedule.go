package outline

import (
	"slices"
	"sort"

	"fgp/internal/tac"
)

// scheduleItems reorders instructions within each control region so that
// instructions producing values communicated to other cores execute as
// early as possible and instructions depending on received values execute
// as late as possible (Section III-B, final paragraph).
//
// The implementation computes ONE global schedule per region over the
// instructions of all partitions (a priority list schedule by critical-path
// length on the cross-core dependence graph) and then emits each
// partition's items in that global order, with each enqueue placed directly
// after its producer and each dequeue ordered by the producer's global
// position. Deriving every core's order from a single global linear order
// guarantees that (a) per-queue enqueue and dequeue sequences agree and
// (b) no cross-core waiting cycle can form.
func (g *generator) scheduleItems() {
	if g.opt.InstrCost == nil {
		return
	}
	for r := range g.fn.Regions {
		present := false
		for p := 0; p < g.np && !present; p++ {
			present = len(g.items[p][r]) > 0
		}
		if present {
			g.scheduleRegion(r)
		}
	}
}

const branchNodeBase = int64(1) << 40

func (g *generator) nodeOf(in *tac.Instr, region int) (int64, bool) {
	if in.Region == region {
		return int64(in.ID), true
	}
	sub := g.fn.AncestorAt(in.Region, region)
	if sub < 0 {
		return 0, false
	}
	return branchNodeBase + int64(g.fn.Regions[sub].Stmt), true
}

func (g *generator) scheduleRegion(region int) {
	// Collect the global node set from every partition's items.
	nodes := map[int64]*schedNodeInfo{}
	addInstrNode := func(id int) {
		in := g.fn.Instrs[id]
		n := int64(id)
		if nodes[n] == nil {
			nodes[n] = &schedNodeInfo{stmt: in.Stmt}
		}
		nodes[n].weight += g.opt.InstrCost(in)
	}
	for p := 0; p < g.np; p++ {
		for _, it := range g.items[p][region] {
			switch it.kind {
			case itInstr:
				addInstrNode(it.instr)
			case itBranch:
				n := branchNodeBase + int64(it.stmt)
				if nodes[n] == nil {
					nodes[n] = &schedNodeInfo{stmt: it.stmt}
				}
			}
		}
	}
	// Branch node weights: total latency of the instructions inside.
	for _, in := range g.fn.Instrs {
		if in.Region == region || g.hoistable(in) {
			continue
		}
		if n, ok := g.nodeOf(in, region); ok && n >= branchNodeBase && nodes[n] != nil {
			nodes[n].weight += g.opt.InstrCost(in)
		}
	}
	if len(nodes) < 2 {
		return
	}

	// Dependence edges projected to region level: flow/memory/control from
	// the analysis, plus anti- and output-dependences on multiply-defined
	// temps (register reuse must not be reordered).
	succ := map[int64][]int64{}
	indeg := map[int64]int{}
	addEdge := func(a, b int64) {
		if a == b {
			return
		}
		if nodes[a] == nil || nodes[b] == nil {
			return
		}
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	projected := func(id int) (int64, bool) {
		in := g.fn.Instrs[id]
		if g.hoistable(in) {
			return 0, false
		}
		return g.nodeOf(in, region)
	}
	for _, e := range g.info.Edges {
		if e.Carried {
			continue
		}
		a, ok := projected(e.From)
		if !ok {
			continue
		}
		b, ok := projected(e.To)
		if !ok {
			continue
		}
		addEdge(a, b)
	}
	// Anti (use before redefinition) and output (def before def) edges.
	for tid := range g.fn.Temps {
		t := &g.fn.Temps[tid]
		if len(t.Defs) < 2 && !(t.IsParam && len(t.Defs) > 0) {
			continue
		}
		// Instruction ids touching the temp, in program order.
		events := slices.Concat(t.Defs, t.Uses)
		slices.Sort(events)
		events = slices.Compact(events)
		for i := 0; i+1 < len(events); i++ {
			a, ok := projected(events[i])
			if !ok {
				continue
			}
			b, ok2 := projected(events[i+1])
			if !ok2 {
				continue
			}
			addEdge(a, b)
		}
	}

	// Same-iteration memory tokens: their queue ops are keyed off anchor
	// items, so every producing access must stay before the enqueue anchor
	// and every consuming access after the dequeue anchor — otherwise the
	// schedule could move a store past the token that publishes it.
	anchorNode := func(a anchor) (int64, bool) {
		if a.instr >= 0 {
			n := int64(a.instr)
			_, ok := nodes[n]
			return n, ok
		}
		if a.subtree >= 0 {
			n := branchNodeBase + int64(g.fn.Regions[a.subtree].Stmt)
			_, ok := nodes[n]
			return n, ok
		}
		return 0, false
	}
	for _, tr := range g.transfers {
		if !tr.token || tr.depth > 0 || tr.region != region {
			continue
		}
		en, enOK := anchorNode(tr.enqAfter)
		dn, dnOK := anchorNode(tr.deqBefore)
		if enOK {
			for _, p := range tr.prodIDs {
				if a, ok2 := projected(p); ok2 {
					addEdge(a, en)
				}
			}
		}
		if dnOK {
			for _, c := range tr.consIDs {
				if a, ok2 := projected(c); ok2 {
					addEdge(dn, a)
				}
			}
		}
		// The token's whole producer side must precede its whole consumer
		// side in the global order, or a merged token could deadlock.
		if enOK && dnOK {
			addEdge(en, dn)
		}
	}

	// Critical-path priorities via reverse topological DP.
	order := g.topo(nodes, succ, indeg)
	if order == nil {
		return // unexpected cycle after projection; keep source order
	}
	cp := map[int64]int64{}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		best := int64(0)
		for _, s := range succ[n] {
			if cp[s] > best {
				best = cp[s]
			}
		}
		cp[n] = nodes[n].weight + best
	}

	// Priority list schedule: ready node with the longest critical path
	// first; ties broken by source position for determinism.
	ind2 := map[int64]int{}
	for n := range nodes {
		ind2[n] = 0
	}
	for _, ss := range succ {
		for _, s := range ss {
			ind2[s]++
		}
	}
	var ready []int64
	for n, d := range ind2 {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	pos := map[int64]int{}
	next := 0
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			ca, cb := cp[a], cp[b]
			if ca != cb {
				if ca > cb {
					best = i
				}
				continue
			}
			if nodes[a].stmt != nodes[b].stmt {
				if nodes[a].stmt < nodes[b].stmt {
					best = i
				}
				continue
			}
			if a < b {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		pos[n] = next
		next++
		for _, s := range succ[n] {
			ind2[s]--
			if ind2[s] == 0 {
				ready = append(ready, s)
			}
		}
	}

	// Rebuild each partition's item order from the global schedule.
	posOfAnchor := func(a anchor) int {
		if a.instr >= 0 {
			if p, ok := pos[int64(a.instr)]; ok {
				return p
			}
			return 1 << 29
		}
		if a.subtree < 0 {
			// Sentinel anchors of carried tokens: iteration start or end.
			if a.stmt >= endOfIteration {
				return 1 << 30
			}
			return -1
		}
		if p, ok := pos[branchNodeBase+int64(g.fn.Regions[a.subtree].Stmt)]; ok {
			return p
		}
		return 1 << 29
	}
	for p := 0; p < g.np; p++ {
		its := g.items[p][region]
		type keyed struct {
			key [3]int
			it  *item
		}
		ks := make([]keyed, len(its))
		for i, it := range its {
			var k [3]int
			switch it.kind {
			case itInstr:
				k = [3]int{pos[int64(it.instr)], 0, it.instr}
			case itBranch:
				k = [3]int{pos[branchNodeBase+int64(it.stmt)], 0, 0}
			case itEnq:
				k = [3]int{posOfAnchor(it.tr.enqAfter), 1, int(it.tr.edge)}
			case itDeq:
				switch {
				case it.tr.token && it.tr.depth > 0:
					// Carried tokens open the iteration on the receiver.
					k = [3]int{posOfAnchor(it.tr.deqBefore), -1, int(it.tr.edge)}
				case it.tr.token:
					// Same-iteration tokens sit just before their earliest
					// consumer; the anchor edges added above guarantee every
					// consumer is scheduled after the anchor.
					k = [3]int{posOfAnchor(it.tr.deqBefore), -1, int(it.tr.edge)}
				default:
					// Value dequeues follow the producer's position: every
					// consumer has a flow edge from the producer, so it is
					// scheduled strictly later. (Keying off the first
					// consumer would race against other consumers the
					// scheduler may move earlier.) The FIFO matcher
					// afterwards hoists dequeues the minimal amount needed
					// to align with the sender's enqueue order.
					k = [3]int{posOfAnchor(it.tr.enqAfter), 2, int(it.tr.edge)}
				}
			}
			ks[i] = keyed{k, it}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			a, b := ks[i].key, ks[j].key
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			if a[1] != b[1] {
				return a[1] < b[1]
			}
			return a[2] < b[2]
		})
		for i := range ks {
			its[i] = ks[i].it
		}
		g.items[p][region] = its
	}
}

// schedNodeInfo carries the weight and source position of one scheduling
// node (an instruction or a nested-branch subtree).
type schedNodeInfo struct {
	weight int64
	stmt   int
}

// topo returns a topological order of nodes, or nil on a cycle.
func (g *generator) topo(nodes map[int64]*schedNodeInfo, succ map[int64][]int64, indeg map[int64]int) []int64 {
	ind := map[int64]int{}
	for n := range nodes {
		ind[n] = 0
	}
	for _, ss := range succ {
		for _, s := range ss {
			ind[s]++
		}
	}
	var stack []int64
	for n, d := range ind {
		if d == 0 {
			stack = append(stack, n)
		}
	}
	sort.Slice(stack, func(i, j int) bool { return stack[i] < stack[j] })
	var order []int64
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		for _, s := range succ[n] {
			ind[s]--
			if ind[s] == 0 {
				stack = append(stack, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil
	}
	return order
}
