package verify_test

import (
	"errors"
	"fmt"
	"testing"

	"fgp/internal/core"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/kernels"
	"fgp/internal/sim"
	"fgp/internal/verify"
)

// requireCheck asserts that err is a verify.Error containing at least one
// diagnostic of the named check, and that every diagnostic carries its
// structured location fields.
func requireCheck(t *testing.T, err error, check string) verify.Diagnostic {
	t.Helper()
	if err == nil {
		t.Fatalf("verifier accepted a miscompiled program; want a %q rejection", check)
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("error is not a *verify.Error: %v", err)
	}
	for _, d := range ve.Diags {
		if d.Check == check {
			if d.String() == "" {
				t.Fatalf("diagnostic has no rendering: %+v", d)
			}
			return d
		}
	}
	t.Fatalf("no %q diagnostic in rejection: %v", check, err)
	return verify.Diagnostic{}
}

// ---- hand-built miscompiles (no compiler involved) ----

func prog(core int, instrs ...isa.Instr) *isa.Program {
	nregs := 0
	for i := range instrs {
		if instrs[i].Q == 0 && instrs[i].Op != isa.Enq && instrs[i].Op != isa.Deq {
			instrs[i].Q = -1
		}
		for _, r := range []isa.Reg{instrs[i].Dst, instrs[i].A, instrs[i].B} {
			if int(r)+1 > nregs {
				nregs = int(r) + 1
			}
		}
	}
	return &isa.Program{Core: core, Instrs: instrs, NRegs: nregs}
}

// TestHandBuiltExchangeAccepted sanity-checks the harness: a correct
// two-core value exchange passes.
func TestHandBuiltExchangeAccepted(t *testing.T) {
	q01 := sim.QID(0, 1, ir.I64, 2)
	err := verify.Check(verify.Input{
		Cores: 2, QueueLen: 4,
		Programs: []*isa.Program{
			prog(0,
				isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 5, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 1, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
			prog(1,
				isa.Instr{Op: isa.Deq, Dst: 0, Q: q01, Edge: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
		},
	})
	if err != nil {
		t.Fatalf("correct exchange rejected: %v", err)
	}
}

// TestSwappedEnqueueOrderRejected: the sender enqueues edges 1,2 but the
// receiver dequeues 2,1 — the k-th dequeue no longer matches the k-th
// enqueue and the verifier must say so with the queue and edge identified.
func TestSwappedEnqueueOrderRejected(t *testing.T) {
	q01 := sim.QID(0, 1, ir.I64, 2)
	err := verify.Check(verify.Input{
		Cores: 2, QueueLen: 4,
		Programs: []*isa.Program{
			prog(0,
				isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 5, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 1, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 2, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
			prog(1,
				isa.Instr{Op: isa.Deq, Dst: 0, Q: q01, Edge: 2, A: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Deq, Dst: 1, Q: q01, Edge: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
		},
	})
	d := requireCheck(t, err, "fifo-order")
	if d.Queue != q01 || d.Core != 1 || d.PC != 0 {
		t.Errorf("diagnostic should locate the first mismatched dequeue (core 1, pc 0, q %d), got %+v", q01, d)
	}
}

// TestOverCapacityPrimingRejected: the sender primes 3 standing entries
// into a 2-slot queue before the receiver's loop begins. Steady-state
// occupancy exceeds the queue; the program completes here only because the
// receiver races ahead — exactly the fragile shape the depth bound exists
// to reject.
func TestOverCapacityPrimingRejected(t *testing.T) {
	q01 := sim.QID(0, 1, ir.I64, 2)
	sender := prog(0,
		isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 0, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
		isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 7, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 7, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 7, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
	)
	// The receiver runs a one-iteration loop (so its drain dequeues land
	// after the loop, not in the pre-loop phase) and then drains.
	receiver := prog(1,
		isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
		isa.Instr{Op: isa.Fjp, A: 0, Tgt: 4, Dst: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
		isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 0, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
		isa.Instr{Op: isa.Jp, Tgt: 1, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
		isa.Instr{Op: isa.Deq, Dst: 1, Q: q01, Edge: 7, A: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Deq, Dst: 1, Q: q01, Edge: 7, A: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Deq, Dst: 1, Q: q01, Edge: 7, A: isa.NoReg, B: isa.NoReg, Tac: -1},
		isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
	)
	err := verify.Check(verify.Input{
		Cores: 2, QueueLen: 2,
		Programs: []*isa.Program{sender, receiver},
	})
	d := requireCheck(t, err, "fifo-depth")
	if d.Queue != q01 {
		t.Errorf("diagnostic should name queue %d, got %+v", q01, d)
	}
}

// TestCyclicWaitsRejected: two cores each dequeue first from the other —
// the classic cross wait. The verifier must report the deadlock and the
// wait-for cycle rather than leaving it to sim.ErrDeadlock at run time.
func TestCyclicWaitsRejected(t *testing.T) {
	q01 := sim.QID(0, 1, ir.I64, 2)
	q10 := sim.QID(1, 0, ir.I64, 2)
	err := verify.Check(verify.Input{
		Cores: 2, QueueLen: 4,
		Programs: []*isa.Program{
			prog(0,
				isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
				isa.Instr{Op: isa.Deq, Dst: 1, Q: q10, Edge: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 2, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
			prog(1,
				isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 1, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
				isa.Instr{Op: isa.Deq, Dst: 1, Q: q01, Edge: 2, A: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q10, Edge: 1, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
		},
	})
	d := requireCheck(t, err, "deadlock")
	if d.PC != 1 {
		t.Errorf("diagnostic should point at the blocked dequeue (pc 1), got %+v", d)
	}
}

// TestDroppedDequeueRejected: an enqueue with no matching dequeue leaves
// the queue undrained at halt.
func TestDroppedDequeueRejected(t *testing.T) {
	q01 := sim.QID(0, 1, ir.I64, 2)
	err := verify.Check(verify.Input{
		Cores: 2, QueueLen: 4,
		Programs: []*isa.Program{
			prog(0,
				isa.Instr{Op: isa.ConstI, Dst: 0, ImmI: 5, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
				isa.Instr{Op: isa.Enq, A: 0, Q: q01, Edge: 1, Dst: isa.NoReg, B: isa.NoReg, Tac: -1},
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
			prog(1,
				isa.Instr{Op: isa.Halt, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Tac: -1, Edge: -1},
			),
		},
	})
	requireCheck(t, err, "fifo-order")
}

// ---- mutations of real compiler output ----

func compileKernel(t *testing.T, name string, cores int) (*core.Artifact, verify.Input) {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	art, in, err := compileLoop(k.Build(), cores)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return art, in
}

// cloneProgram returns a fresh program with its own instructions; the
// other fields are shared, since no mutation touches them.
func cloneProgram(p *isa.Program) *isa.Program {
	return &isa.Program{
		Core:    p.Core,
		Instrs:  append([]isa.Instr(nil), p.Instrs...),
		NRegs:   p.NRegs,
		Labels:  p.Labels,
		RegName: p.RegName,
		Marks:   p.Marks,
	}
}

func cloneInput(in verify.Input) verify.Input {
	ps := make([]*isa.Program, len(in.Programs))
	for i, p := range in.Programs {
		ps[i] = cloneProgram(p)
	}
	in.Programs = ps
	return in
}

// tokenEdges returns the edge ids whose enqueue payloads are protocol
// zero-constants — the memory-ordering tokens. A token payload register is
// written only by `ConstI 0` instructions with no TAC provenance.
func tokenEdges(in verify.Input) map[int32]bool {
	edges := map[int32]bool{}
	for _, p := range in.Programs {
		zeroOnly := map[isa.Reg]bool{}
		for _, ins := range p.Instrs {
			if ins.Dst == isa.NoReg {
				continue
			}
			switch {
			case ins.Op == isa.ConstI && ins.ImmI == 0 && ins.Tac < 0:
				if _, seen := zeroOnly[ins.Dst]; !seen {
					zeroOnly[ins.Dst] = true
				}
			case ins.Op == isa.Deq || ins.Op == isa.Enq && ins.Dst == isa.NoReg:
				// queue ops don't define payload registers
			default:
				zeroOnly[ins.Dst] = false
			}
		}
		for _, ins := range p.Instrs {
			if ins.Op == isa.Enq && ins.Edge >= 0 && zeroOnly[ins.A] {
				edges[ins.Edge] = true
			}
		}
	}
	return edges
}

func nopOut(ins *isa.Instr) {
	*ins = isa.Instr{Op: isa.Nop, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Q: -1, Edge: -1, Tac: -1}
}

// TestDroppedTokenRejected erases a memory-ordering token — every queue op
// carrying its edge, on all cores — from real compiler output. Data
// traffic is untouched, so the only thing lost is the cross-core
// happens-before ordering of a memory dependence, and the verifier must
// flag exactly that.
func TestDroppedTokenRejected(t *testing.T) {
	found := false
	for _, k := range kernels.All() {
		_, in := compileKernel(t, k.Name, 4)
		edges := tokenEdges(in)
		if len(edges) == 0 {
			continue
		}
		for e := range edges {
			mut := cloneInput(in)
			for _, p := range mut.Programs {
				for i := range p.Instrs {
					if (p.Instrs[i].Op == isa.Enq || p.Instrs[i].Op == isa.Deq) && p.Instrs[i].Edge == e {
						nopOut(&p.Instrs[i])
					}
				}
			}
			err := verify.Check(mut)
			if verify.HasCheck(err, "token-coverage") {
				found = true
				requireCheck(t, err, "token-coverage")
			} else if err == nil {
				t.Errorf("%s: dropping token edge %d went unnoticed", k.Name, e)
			}
			// Some token edges double as the only traffic keeping two
			// cores in lockstep; dropping those surfaces as a different
			// (still fatal) diagnostic, which is fine — but at least one
			// kernel must produce the specific token-coverage rejection.
		}
	}
	if !found {
		t.Fatal("no kernel produced a token-coverage rejection; the check is dead")
	}
}

// TestMissingCopyOutRejected redirects a live-out dequeue on the primary
// into a scratch register, so the named result register is never written.
func TestMissingCopyOutRejected(t *testing.T) {
	found := false
	for _, k := range kernels.All() {
		_, in := compileKernel(t, k.Name, 4)
		p0 := in.Programs[0]
		victim := -1
		for i, ins := range p0.Instrs {
			if ins.Op == isa.Deq && ins.Dst != isa.NoReg && p0.RegName[ins.Dst] != "" {
				victim = i
				break
			}
		}
		if victim < 0 {
			continue
		}
		mut := cloneInput(in)
		scratch := isa.Reg(mut.Programs[0].NRegs)
		mut.Programs[0].NRegs++
		mut.Programs[0].Instrs[victim].Dst = scratch
		err := verify.Check(mut)
		if verify.HasCheck(err, "copy-out") {
			found = true
			requireCheck(t, err, "copy-out")
		} else if err == nil {
			t.Errorf("%s: redirected live-out dequeue went unnoticed", k.Name)
		}
	}
	if !found {
		t.Fatal("no kernel produced a copy-out rejection; the check is dead")
	}
}

// TestSwappedPayloadRejected swaps the payload registers of two data
// enqueues on the same core, delivering each consumer the other's value.
// The provenance check must notice the consumer receiving a temp it never
// uses on at least one real kernel.
func TestSwappedPayloadRejected(t *testing.T) {
	found := false
	for _, k := range kernels.All() {
		if found {
			break
		}
		_, in := compileKernel(t, k.Name, 4)
		tokens := tokenEdges(in)
		for ci, p := range in.Programs {
			var datas []int
			for i, ins := range p.Instrs {
				if ins.Op == isa.Enq && ins.Edge >= 0 && !tokens[ins.Edge] && ins.A != isa.NoReg {
					datas = append(datas, i)
				}
			}
			for x := 0; x < len(datas) && !found; x++ {
				for y := x + 1; y < len(datas) && !found; y++ {
					i, j := datas[x], datas[y]
					if p.Instrs[i].A == p.Instrs[j].A || p.Instrs[i].K != p.Instrs[j].K {
						continue
					}
					mut := cloneInput(in)
					mp := mut.Programs[ci]
					mp.Instrs[i].A, mp.Instrs[j].A = mp.Instrs[j].A, mp.Instrs[i].A
					err := verify.Check(mut)
					if verify.HasCheck(err, "provenance") {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no payload swap on any kernel produced a provenance rejection; the check is dead")
	}
}

// TestDiagnosticRendering pins the structured fields surfaced to fgpd 422
// responses and fuzz shrink reports.
func TestDiagnosticRendering(t *testing.T) {
	d := verify.Diagnostic{Check: "fifo-order", Core: 1, PC: 12, Queue: 3, Edge: 7, Msg: "boom"}
	want := "fifo-order core=1 pc=12 q=3 edge=7: boom"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
	e := &verify.Error{Diags: []verify.Diagnostic{d}}
	if e.Error() == "" || !errors.As(error(e), new(*verify.Error)) {
		t.Error("Error must render and unwrap as *verify.Error")
	}
	if !verify.HasCheck(fmt.Errorf("wrapped: %w", e), "fifo-order") {
		t.Error("HasCheck must see through wrapping")
	}
	if verify.HasCheck(e, "deadlock") {
		t.Error("HasCheck must not match absent checks")
	}
}
