// Package verify is the compiler's static translation-validation pass: it
// checks every compiled multi-core program set against the communication
// invariants the paper's splitting transformation must preserve, at compile
// time, before anything is simulated.
//
// The checker symbolically co-executes all per-core programs in an abstract
// machine. Registers hold either concrete values (literals, the replicated
// induction variable, protocol constants) or symbolic values tagged with
// their provenance — the TAC instruction that produced them and the
// iteration it ran in. Queues are bounded FIFOs of (edge tag, value) pairs.
// The main loop of every core is executed for a small, fixed number of
// abstract iterations (enough to observe the steady state and one carried
// boundary); data-dependent branches fork the exploration through a shared
// condition oracle keyed by the condition's provenance, so every core
// replicating a conditional takes the same arm on every explored path —
// exactly the conditional-replication contract of Section III-I. Each
// distinct decision is forked once (both arms run, other decisions at
// their defaults), so the explored path count is linear in the number of
// dynamic branch decisions, not exponential in their product.
//
// Per explored path the checker enforces:
//
//  1. FIFO order: the k-th dequeue on every (sender, receiver, class) queue
//     pops the entry the k-th enqueue pushed (matched by communication-edge
//     tag), and all queues are fully drained at halt.
//  2. Static depth: the entries primed before the loop on every queue fit
//     the queue capacity, so steady-state traffic never depends on the
//     receiver racing ahead during priming.
//  3. Deadlock freedom: the co-execution is a bounded Kahn process network
//     (deterministic cores, blocking FIFO ops), so if any fair schedule
//     gets stuck, every schedule does; a stuck state is reported with the
//     cross-core wait-for cycle.
//  4. Token coverage: every cross-core memory dependence reported by
//     internal/deps is ordered by a happens-before chain through the
//     queues (tracked with vector clocks), at its required dependence
//     distance.
//  5. Copy-out completeness: after halt the primary holds, under its
//     live-out register names, the same value the owning core computed.
//
// Additionally, every symbolic operand consumed by a compute instruction is
// checked against the TAC function's use-def relation (a value that arrived
// over a queue must be one the consuming instruction actually uses), which
// catches transfers wired to the wrong register even when edge tags agree.
//
// Every compile and every search candidate runs this pass, so its
// bookkeeping is dense and built once per Check: the token-coverage
// obligations are listed up front, each completed path indexes its event
// log in a flat (instruction, iteration) table, and vector-clock snapshots
// are carved from one append-only slab instead of allocated one by one.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"fgp/internal/codegraph"
	"fgp/internal/deps"
	"fgp/internal/isa"
	"fgp/internal/tac"
)

// Diagnostic is one structured invariant violation. Core, PC, Queue and
// Edge are -1 when the violation is not tied to that coordinate.
type Diagnostic struct {
	// Check identifies the violated invariant: "fifo-order", "fifo-depth",
	// "deadlock", "token-coverage", "copy-out", "provenance", "structure".
	Check string `json:"check"`
	Core  int    `json:"core"`
	PC    int    `json:"pc"`
	Queue int32  `json:"queue"`
	Edge  int32  `json:"edge"`
	Msg   string `json:"msg"`
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	sb.WriteString(d.Check)
	if d.Core >= 0 {
		fmt.Fprintf(&sb, " core=%d", d.Core)
	}
	if d.PC >= 0 {
		fmt.Fprintf(&sb, " pc=%d", d.PC)
	}
	if d.Queue >= 0 {
		fmt.Fprintf(&sb, " q=%d", d.Queue)
	}
	if d.Edge >= 0 {
		fmt.Fprintf(&sb, " edge=%d", d.Edge)
	}
	sb.WriteString(": ")
	sb.WriteString(d.Msg)
	return sb.String()
}

// Error carries every distinct diagnostic the verifier found (bounded).
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	n := len(e.Diags)
	show := n
	if show > 3 {
		show = 3
	}
	parts := make([]string, 0, show)
	for _, d := range e.Diags[:show] {
		parts = append(parts, d.String())
	}
	s := fmt.Sprintf("verify: %d invariant violation(s): %s", n, strings.Join(parts, "; "))
	if n > show {
		s += fmt.Sprintf("; and %d more", n-show)
	}
	return s
}

// HasCheck reports whether err is (or wraps) a verification Error carrying
// at least one diagnostic of the named check. Callers use it to recognize
// specific rejection classes — e.g. a compile-time "deadlock" rejection in
// a sweep that deliberately explores deadlocking configurations.
func HasCheck(err error, check string) bool {
	var ve *Error
	if !errors.As(err, &ve) {
		return false
	}
	for _, d := range ve.Diags {
		if d.Check == check {
			return true
		}
	}
	return false
}

// Input is everything the verifier needs. Programs, Cores and QueueLen are
// required; Fn, Deps and Parts are optional compiler context that enable
// the token-coverage, copy-out and provenance checks (the FIFO, depth and
// deadlock checks run on the machine code alone).
type Input struct {
	Programs []*isa.Program
	// Cores is the machine core count queue ids were computed against
	// (sim.QID); it may exceed len(Programs).
	Cores int
	// QueueLen is the per-queue capacity (slots).
	QueueLen int

	Fn    *tac.Fn
	Deps  *deps.Info
	Parts *codegraph.Result
}

// maxDiags bounds the number of distinct diagnostics collected before the
// exploration stops early.
const maxDiags = 32

// maxWorlds bounds the number of explored control paths; past it the
// verification is best-effort (no spurious rejection).
const maxWorlds = 4096

// maxStepsPerWorld bounds abstract instructions per explored path.
const maxStepsPerWorld = 1 << 20

// nIterCap bounds the abstract iteration count even when deep carried
// dependences would want more; deeper distances fall back to the
// structural token check.
const nIterCap = 5

// Check validates one compiled program set and returns nil or an *Error
// with structured diagnostics.
func Check(in Input) error {
	if len(in.Programs) == 0 {
		return nil
	}
	if in.Cores < len(in.Programs) {
		in.Cores = len(in.Programs)
	}
	if in.QueueLen <= 0 {
		in.QueueLen = 20
	}
	c := newChecker(in)
	c.explore()
	c.staticChecks()
	if len(c.diags) == 0 {
		return nil
	}
	return &Error{Diags: c.diags}
}

type checker struct {
	in    Input
	nIter int32
	nq    int // queue-id space size; per-world state is dense over it

	// Derived from Fn/Deps/Parts when present.
	instPart []int       // TAC instr id -> partition (-1 unknown)
	memEdges []deps.Edge // cross-partition memory dependences
	// evSlot maps a TAC instruction id to its row of the event table, or
	// -1 when its executions need no clock stamp.
	evSlot []int32
	// obligations lists every pair of stamped executions the token check
	// compares, built once in (edge, iteration) order so diagnostics come
	// out in that order.
	obligations []obligation
	// evTab is the event table of the world being checked: row evSlot[tac],
	// column iteration-1, holding that execution's clock snapshot. Only
	// iterations 1..nIter are ever looked up.
	evTab [][]int64
	// slab backs every vector-clock snapshot of this check. Snapshots are
	// immutable, so worlds and forks share them freely.
	slab []int64

	// Per-program structure.
	loops []loopInfo

	// Monotone aggregates across worlds (schedule- and path-independent
	// counts folded with max, so one world suffices to establish them and
	// extra worlds can only confirm).
	prePush    []int          // queue -> enqueues before the sender's loop
	prePop     []int          // queue -> dequeues before the receiver's loop
	primedEdge map[qedge]int  // (queue, edge) -> primed entries
	loopPush   map[qedge]bool // (queue, edge) pushed during some loop iteration
	loopPop    map[qedge]bool // (queue, edge) popped during some loop iteration

	diags    []Diagnostic
	diagSeen map[string]bool
	worlds   int
	stack    []*world
	// forked records branch-decision keys whose false arm already has a
	// world exploring it, keeping the explored path count linear in
	// distinct decisions rather than exponential in their product.
	forked map[okey]bool
}

// qedge names the traffic of one communication edge on one queue.
type qedge struct{ q, edge int32 }

// obligation is one happens-before requirement of the token check: the
// execution of TAC instruction aTac in iteration ak must be ordered before
// that of bTac in iteration bk. a and b index the event table.
type obligation struct {
	a, b       int32
	aTac, bTac int32
	ak, bk     int32
}

type loopInfo struct {
	head  int // -1 when the program has no (non-driver) loop
	latch int
}

func newChecker(in Input) *checker {
	c := &checker{
		in:         in,
		nIter:      2,
		primedEdge: map[qedge]int{},
		loopPush:   map[qedge]bool{},
		loopPop:    map[qedge]bool{},
		diagSeen:   map[string]bool{},
		forked:     map[okey]bool{},
	}
	if in.Fn != nil {
		c.instPart = make([]int, len(in.Fn.Instrs))
		for i, inst := range in.Fn.Instrs {
			c.instPart[i] = -1
			if in.Parts != nil && inst.Fiber >= 0 && int(inst.Fiber) < len(in.Parts.PartOf) {
				c.instPart[i] = int(in.Parts.PartOf[inst.Fiber])
			}
		}
	}
	if in.Deps != nil && in.Fn != nil && in.Parts != nil {
		c.evSlot = make([]int32, len(in.Fn.Instrs))
		for i := range c.evSlot {
			c.evSlot[i] = -1
		}
		slots := int32(0)
		stamp := func(id int) {
			if c.evSlot[id] < 0 {
				c.evSlot[id] = slots
				slots++
			}
		}
		maxDist := int64(0)
		for _, e := range in.Deps.Edges {
			if e.Kind != deps.Mem {
				continue
			}
			pf, pt := c.instPart[e.From], c.instPart[e.To]
			if pf < 0 || pt < 0 || pf == pt {
				continue
			}
			c.memEdges = append(c.memEdges, e)
			stamp(e.From)
			stamp(e.To)
			if e.Carried && e.MemKnown {
				d := e.MemDist
				if d < 0 {
					d = -d
				}
				if d > maxDist {
					maxDist = d
				}
			}
		}
		if maxDist+1 > int64(c.nIter) {
			n := maxDist + 1
			if n > nIterCap {
				n = nIterCap
			}
			c.nIter = int32(n)
		}
		c.buildObligations()
		if len(c.obligations) > 0 {
			c.evTab = make([][]int64, int(slots)*int(c.nIter))
		}
	}
	c.loops = make([]loopInfo, len(in.Programs))
	for pi, p := range in.Programs {
		c.loops[pi] = c.findLoop(pi, p)
	}
	// The sim.QID numbering spans Cores^2 queues per value class; hand-built
	// programs in tests may not declare Cores, so widen to the largest queue
	// id any instruction actually names.
	c.nq = in.Cores * in.Cores * 2
	for _, p := range in.Programs {
		for i := range p.Instrs {
			inst := &p.Instrs[i]
			if (inst.Op == isa.Enq || inst.Op == isa.Deq) && int(inst.Q)+1 > c.nq {
				c.nq = int(inst.Q) + 1
			}
		}
	}
	c.prePush = make([]int, c.nq)
	c.prePop = make([]int, c.nq)
	return c
}

// buildObligations lists the happens-before pairs of every cross-core
// memory dependence the abstract horizon covers: each iteration pair at
// the dependence distance, edge by edge. Distances at or beyond the
// horizon fall back to the structural check in staticChecks.
func (c *checker) buildObligations() {
	add := func(aTac, bTac int, ak, bk int32) {
		c.obligations = append(c.obligations, obligation{
			a:    c.evSlot[aTac]*c.nIter + ak - 1,
			b:    c.evSlot[bTac]*c.nIter + bk - 1,
			aTac: int32(aTac), bTac: int32(bTac), ak: ak, bk: bk,
		})
	}
	for _, e := range c.memEdges {
		switch {
		case !e.Carried:
			for k := int32(1); k <= c.nIter; k++ {
				add(e.From, e.To, k, k)
			}
		case e.MemKnown:
			dist := e.MemDist
			from, to := e.From, e.To
			if dist < 0 {
				dist, from, to = -dist, to, from
			}
			if dist >= int64(c.nIter) {
				continue
			}
			for k := int32(1); k+int32(dist) <= c.nIter; k++ {
				add(from, to, k, k+int32(dist))
			}
		default:
			// Unknown direction and distance: slip must be bounded to one
			// iteration both ways.
			for k := int32(1); k+1 <= c.nIter; k++ {
				add(e.From, e.To, k, k+1)
				add(e.To, e.From, k, k+1)
			}
		}
	}
}

// slabChunk is the number of clock entries each slab allocation holds.
const slabChunk = 1024

// snapshot returns an immutable copy of vc carved from the check's slab.
func (c *checker) snapshot(vc []int64) []int64 {
	if len(c.slab)+len(vc) > cap(c.slab) {
		c.slab = make([]int64, 0, max(slabChunk, len(vc)))
	}
	off := len(c.slab)
	c.slab = append(c.slab, vc...)
	return c.slab[off:len(c.slab):len(c.slab)]
}

// findLoop locates the program's main loop: the unique target of backward
// jumps other than instruction 0 (the secondary driver re-entry).
func (c *checker) findLoop(core int, p *isa.Program) loopInfo {
	li := loopInfo{head: -1, latch: -1}
	for pc, in := range p.Instrs {
		if (in.Op == isa.Jp || in.Op == isa.Fjp) && in.Tgt >= 0 && int(in.Tgt) <= pc && in.Tgt != 0 {
			h := int(in.Tgt)
			if li.head >= 0 && li.head != h {
				c.report(Diagnostic{Check: "structure", Core: core, PC: pc, Queue: -1, Edge: -1,
					Msg: fmt.Sprintf("multiple loop headers (%d and %d); cannot verify", li.head, h)})
				continue
			}
			li.head = h
			if pc > li.latch {
				li.latch = pc
			}
		}
	}
	return li
}

func (c *checker) report(d Diagnostic) {
	if len(c.diags) >= maxDiags {
		return
	}
	key := d.String()
	if c.diagSeen[key] {
		return
	}
	c.diagSeen[key] = true
	c.diags = append(c.diags, d)
}

func (c *checker) full() bool { return len(c.diags) >= maxDiags }

// qSrc / qDst decode the sim.QID queue numbering.
func (c *checker) qSrc(q int32) int { return int(q/2) / c.in.Cores }
func (c *checker) qDst(q int32) int { return int(q/2) % c.in.Cores }

// explore runs the joint abstract execution over every control path.
func (c *checker) explore() {
	if c.full() {
		return
	}
	c.stack = []*world{newWorld(c)}
	for len(c.stack) > 0 && c.worlds < maxWorlds && !c.full() {
		w := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.worlds++
		w.run(c)
	}
}

// staticChecks evaluates the path-independent invariants accumulated
// during exploration: the per-iteration depth bound and the structural
// token fallback for dependence distances beyond the abstract horizon.
func (c *checker) staticChecks() {
	// (2) standing primed entries must fit in the queue. Per-iteration
	// data traffic larger than capacity is fine — enqueue blocks and the
	// receiver drains concurrently — but primed tokens occupy slots for a
	// full dependence distance, so a priming burst beyond capacity means
	// steady-state occupancy exceeds the queue and the program runs only
	// if the receiver happens to race ahead during priming. The compiler's
	// own TokenDepthCap promises never to emit this.
	for qi, pushed := range c.prePush {
		q := int32(qi)
		primed := pushed - c.prePop[q]
		if primed > c.in.QueueLen {
			c.report(Diagnostic{Check: "fifo-depth", Core: c.qSrc(q), PC: -1, Queue: q, Edge: -1,
				Msg: fmt.Sprintf("queue %d->%d holds %d primed entries before the loop but capacity is %d; standing depth exceeds the queue",
					c.qSrc(q), c.qDst(q), primed, c.in.QueueLen)})
		}
	}

	// (4, far distances) carried dependences beyond the abstract horizon:
	// require a primed token edge with slack within the dependence
	// distance between the two partitions.
	for _, e := range c.memEdges {
		if !e.Carried || !e.MemKnown {
			continue
		}
		dist := e.MemDist
		from, to := e.From, e.To
		if dist < 0 {
			dist, from, to = -dist, e.To, e.From
		}
		if dist < int64(c.nIter) {
			continue // covered exactly by the happens-before check
		}
		sender, receiver := c.instPart[from], c.instPart[to]
		if c.hasTokenEdge(sender, receiver, dist) {
			continue
		}
		c.report(Diagnostic{Check: "token-coverage", Core: sender, PC: -1, Queue: -1, Edge: -1,
			Msg: fmt.Sprintf("carried memory dependence %d->%d (distance %d) crosses cores %d->%d with no primed token edge of slack <= %d",
				e.From, e.To, e.MemDist, c.instPart[e.From], c.instPart[e.To], dist)})
	}
}

// hasTokenEdge reports whether some queue from sender to receiver carries a
// primed per-iteration edge with 1..dist entries of slack.
func (c *checker) hasTokenEdge(sender, receiver int, dist int64) bool {
	for qe, primed := range c.primedEdge {
		if c.qSrc(qe.q) != sender || c.qDst(qe.q) != receiver {
			continue
		}
		if primed < 1 || int64(primed) > dist {
			continue
		}
		if c.loopPush[qe] && c.loopPop[qe] {
			return true
		}
	}
	return false
}
