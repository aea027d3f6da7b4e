// Package isa defines the instruction set of the simulated cores, including
// the enqueue/dequeue instructions the paper adds for low-latency
// core-to-core transfers (Section II). Programs are linear instruction
// lists with resolved branch targets; registers are per-core virtual
// registers (the model does not simulate register pressure).
package isa

import (
	"fmt"
	"strings"

	"fgp/internal/ir"
)

// Reg is a per-core virtual register index.
type Reg int32

// NoReg marks an unused register slot.
const NoReg Reg = -1

// Op enumerates opcodes.
type Op uint8

const (
	Nop Op = iota
	// ConstF/ConstI: Dst = immediate.
	ConstF
	ConstI
	// Mov: Dst = A.
	Mov
	// Bin: Dst = A <BinOp> B on values of kind K.
	Bin
	// Un: Dst = <UnOp> A on a value of kind K.
	Un
	// Load: Dst = Array[A].
	Load
	// Store: Array[A] = B.
	Store
	// Enq: push register A into queue Q; blocks while the queue is full.
	Enq
	// Deq: pop the next visible value from queue Q into Dst; blocks until
	// a value is visible (enqueue time + transfer latency, Fig 11).
	Deq
	// Fjp: jump to Tgt if A == 0 ("jump if false").
	Fjp
	// Jp: unconditional jump to Tgt.
	Jp
	// Jr: indirect jump to the instruction index held in A (used by the
	// secondary-thread driver to dispatch outlined functions).
	Jr
	// Halt stops the core.
	Halt
)

var opNames = [...]string{
	Nop: "nop", ConstF: "constf", ConstI: "consti", Mov: "mov",
	Bin: "bin", Un: "un", Load: "load", Store: "store",
	Enq: "enq", Deq: "deq", Fjp: "fjp", Jp: "jp", Jr: "jr", Halt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one machine instruction.
type Instr struct {
	Op    Op
	BinOp ir.BinOp
	UnOp  ir.UnOp
	K     ir.Kind // operand kind for Bin/Un/Load/Store and queue class
	Dst   Reg
	A, B  Reg
	ImmF  float64
	ImmI  int64
	Arr   int32 // array id, for Load/Store
	Q     int32 // queue id, for Enq/Deq
	Tgt   int32 // branch target (instruction index)
	Edge  int32 // communication edge tag for debug FIFO verification (-1 none)
	Tac   int32 // originating TAC instruction id (-1 none); profile mapping
}

// Mark annotates an instruction index with a region boundary for the
// observability layer (internal/obs). An Enter mark fires when the
// instruction at PC completes, opening region Region at that instruction's
// start time; an Exit mark closes it. Exit marks placed on shared merge
// points only fire when their region is actually open (the simulator keeps
// a per-core region stack), so a then-region exit sitting on a join
// instruction is ignored when control arrived via the else path.
type Mark struct {
	PC     int
	Region int32
	Enter  bool
	Name   string
}

// Program is the code image for one core.
type Program struct {
	Core   int
	Instrs []Instr
	NRegs  int
	// Labels annotates instruction indices for disassembly.
	Labels map[int]string
	// RegName maps registers to temp names for disassembly and live-out
	// extraction.
	RegName map[Reg]string
	// Marks lists region boundaries for observability, in the order they
	// should fire when several share one PC.
	Marks []Mark
}

// Append adds an instruction and returns its index.
func (p *Program) Append(in Instr) int {
	p.Instrs = append(p.Instrs, in)
	return len(p.Instrs) - 1
}

// AddMark records a region boundary at an instruction index. Marks sharing
// a PC fire in the order they were added.
func (p *Program) AddMark(pc int, region int32, enter bool, name string) {
	p.Marks = append(p.Marks, Mark{PC: pc, Region: region, Enter: enter, Name: name})
}

// Label annotates the next emitted instruction index with a name.
func (p *Program) Label(name string) {
	if p.Labels == nil {
		p.Labels = map[int]string{}
	}
	idx := len(p.Instrs)
	if prev, ok := p.Labels[idx]; ok {
		name = prev + "," + name
	}
	p.Labels[idx] = name
}

// Disasm renders the program for the inspection tools.
func (p *Program) Disasm() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core %d: %d instrs, %d regs\n", p.Core, len(p.Instrs), p.NRegs)
	rn := func(r Reg) string {
		if r == NoReg {
			return "_"
		}
		if n, ok := p.RegName[r]; ok {
			return fmt.Sprintf("r%d<%s>", r, n)
		}
		return fmt.Sprintf("r%d", r)
	}
	for i, in := range p.Instrs {
		if lab, ok := p.Labels[i]; ok {
			fmt.Fprintf(&sb, "%s:\n", lab)
		}
		switch in.Op {
		case ConstF:
			fmt.Fprintf(&sb, "  %4d constf %s, %g\n", i, rn(in.Dst), in.ImmF)
		case ConstI:
			fmt.Fprintf(&sb, "  %4d consti %s, %d\n", i, rn(in.Dst), in.ImmI)
		case Mov:
			fmt.Fprintf(&sb, "  %4d mov    %s, %s\n", i, rn(in.Dst), rn(in.A))
		case Bin:
			fmt.Fprintf(&sb, "  %4d %-6s %s, %s, %s (%s)\n", i, in.BinOp, rn(in.Dst), rn(in.A), rn(in.B), in.K)
		case Un:
			fmt.Fprintf(&sb, "  %4d %-6s %s, %s (%s)\n", i, in.UnOp, rn(in.Dst), rn(in.A), in.K)
		case Load:
			fmt.Fprintf(&sb, "  %4d load   %s, arr%d[%s]\n", i, rn(in.Dst), in.Arr, rn(in.A))
		case Store:
			fmt.Fprintf(&sb, "  %4d store  arr%d[%s], %s\n", i, in.Arr, rn(in.A), rn(in.B))
		case Enq:
			fmt.Fprintf(&sb, "  %4d enq    q%d, %s (edge %d)\n", i, in.Q, rn(in.A), in.Edge)
		case Deq:
			fmt.Fprintf(&sb, "  %4d deq    %s, q%d (edge %d)\n", i, rn(in.Dst), in.Q, in.Edge)
		case Fjp:
			fmt.Fprintf(&sb, "  %4d fjp    %s, @%d\n", i, rn(in.A), in.Tgt)
		case Jp:
			fmt.Fprintf(&sb, "  %4d jp     @%d\n", i, in.Tgt)
		case Jr:
			fmt.Fprintf(&sb, "  %4d jr     %s\n", i, rn(in.A))
		case Halt:
			fmt.Fprintf(&sb, "  %4d halt\n", i)
		default:
			fmt.Fprintf(&sb, "  %4d %s\n", i, in.Op)
		}
	}
	return sb.String()
}
