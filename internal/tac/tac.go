// Package tac defines the compiler's predicated three-address form. The IR's
// expression trees are lowered so that every tree node becomes one TAC
// instruction producing a virtual register ("temp"); control flow becomes a
// region tree (one region per branch body) and every instruction knows the
// region that directly contains it. All later passes — fiber partitioning,
// dependence analysis, code-graph merging, scheduling and code generation —
// operate on this form.
//
// Every temp indexes its writers (TempInfo.Defs) and its readers
// (TempInfo.Uses) in program order, kept by Fn.Emit. Dependence analysis
// and the outliner walk one temp's readers instead of rescanning the
// function, which keeps those passes linear in its size.
package tac

import (
	"fmt"
	"strings"

	"fgp/internal/ir"
)

// TempID identifies a virtual register within a Fn.
type TempID int32

// None marks an unused operand slot.
const None TempID = -1

// TempInfo describes one virtual register.
type TempInfo struct {
	Name    string // original name for named temps, ".tN" for generated ones
	K       ir.Kind
	Named   bool  // declared in the source (survives across statements)
	IsIndex bool  // the loop induction variable (replicated on every core)
	IsParam bool  // read-only region parameter (transferred at region entry)
	Defs    []int // instructions that write the temp, in program order
	Uses    []int // instructions that read it, in program order, each once
}

// OpKind classifies a TAC instruction.
type OpKind uint8

const (
	OpConstF OpKind = iota
	OpConstI
	OpMov
	OpBin
	OpUn
	OpLoad
	OpStore
)

func (o OpKind) String() string {
	switch o {
	case OpConstF:
		return "constf"
	case OpConstI:
		return "consti"
	case OpMov:
		return "mov"
	case OpBin:
		return "bin"
	case OpUn:
		return "un"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one three-address instruction.
//
// Operand layout by OpKind:
//
//	OpConstF/OpConstI: Dst = CF/CI
//	OpMov:             Dst = A
//	OpBin:             Dst = A BinOp B
//	OpUn:              Dst = UnOp A
//	OpLoad:            Dst = Array[A]
//	OpStore:           Array[A] = B   (Dst is None)
type Instr struct {
	ID    int
	Op    OpKind
	BinOp ir.BinOp
	UnOp  ir.UnOp
	K     ir.Kind // result kind; for OpStore the kind of the stored value
	Dst   TempID
	A, B  TempID
	Array string
	CF    float64
	CI    int64

	Stmt   int // global statement ordinal (anchors item order in codegen)
	Line   int // pseudo source line (proximity heuristic)
	Region int
	Fiber  int32 // assigned by the fiber partitioner; -1 before that
}

// Uses appends the temp operands read by the instruction to buf.
func (in *Instr) Uses(buf []TempID) []TempID {
	switch in.Op {
	case OpMov, OpUn:
		buf = append(buf, in.A)
	case OpBin:
		buf = append(buf, in.A, in.B)
	case OpLoad:
		buf = append(buf, in.A)
	case OpStore:
		buf = append(buf, in.A, in.B)
	}
	return buf
}

// IsCompute reports whether the instruction is a compute operation in the
// paper's sense (used by the load-balance metric): a binary or unary
// arithmetic/logic operation.
func (in *Instr) IsCompute() bool { return in.Op == OpBin || in.Op == OpUn }

// Region is a node of the control-region tree. Region 0 is the loop body
// itself; each branch of each If introduces a child region. An instruction
// in region R executes iff every (Cond, Sense) pair on the path from R to
// the root holds.
type Region struct {
	ID     int
	Parent int    // -1 for the root
	Cond   TempID // condition temp controlling this branch (None for root)
	Sense  bool   // true: executes when Cond != 0
	Stmt   int    // statement ordinal of the owning If (anchors item order)
	Depth  int
}

// Fn is a lowered loop body.
type Fn struct {
	Loop    *ir.Loop
	Temps   []TempInfo
	Instrs  []*Instr
	Regions []Region
	// NStmts is the number of source statements (including Ifs).
	NStmts int

	byName map[string]TempID
}

// TempByName resolves a named temp; ok is false if it does not exist.
func (f *Fn) TempByName(name string) (TempID, bool) {
	t, ok := f.byName[name]
	return t, ok
}

// NewTemp appends a virtual register and returns its id.
func (f *Fn) NewTemp(info TempInfo) TempID {
	id := TempID(len(f.Temps))
	f.Temps = append(f.Temps, info)
	if info.Named || info.IsParam || info.IsIndex {
		if f.byName == nil {
			f.byName = map[string]TempID{}
		}
		f.byName[info.Name] = id
	}
	return id
}

// Emit appends an instruction, assigning its ID and recording its def and
// its reads. Operands never change after emission, so Uses stays exact.
func (f *Fn) Emit(in Instr) *Instr {
	in.ID = len(f.Instrs)
	in.Fiber = -1
	p := &in
	f.Instrs = append(f.Instrs, p)
	if in.Dst != None {
		f.Temps[in.Dst].Defs = append(f.Temps[in.Dst].Defs, in.ID)
	}
	var buf [2]TempID
	for i, u := range p.Uses(buf[:0]) {
		if i == 0 || u != buf[0] {
			f.Temps[u].Uses = append(f.Temps[u].Uses, in.ID)
		}
	}
	return p
}

// PredChain returns the (cond temp, sense) pairs that guard region id, from
// outermost to innermost.
func (f *Fn) PredChain(region int) []Pred {
	var chain []Pred
	for r := region; r > 0; r = f.Regions[r].Parent {
		chain = append(chain, Pred{f.Regions[r].Cond, f.Regions[r].Sense})
	}
	// reverse to outermost-first
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Pred is a control-flow predicate: "Cond has truth value Sense".
type Pred struct {
	Cond  TempID
	Sense bool
}

// LCA returns the lowest common ancestor of two regions.
func (f *Fn) LCA(a, b int) int {
	for f.Regions[a].Depth > f.Regions[b].Depth {
		a = f.Regions[a].Parent
	}
	for f.Regions[b].Depth > f.Regions[a].Depth {
		b = f.Regions[b].Parent
	}
	for a != b {
		a = f.Regions[a].Parent
		b = f.Regions[b].Parent
	}
	return a
}

// AncestorAt returns the ancestor of region r (possibly r itself) whose
// parent is region top; that is, the child-of-top subtree containing r.
// It returns -1 both when r == top (the instruction sits directly in top)
// and when r is not a descendant of top at all.
func (f *Fn) AncestorAt(r, top int) int {
	if r == top {
		return -1
	}
	for r >= 0 && f.Regions[r].Parent != top {
		r = f.Regions[r].Parent
	}
	return r
}

// TempName renders a temp id for diagnostics.
func (f *Fn) TempName(t TempID) string {
	if t == None {
		return "_"
	}
	return f.Temps[t].Name
}

// String renders one instruction for dumps.
func (f *Fn) InstrString(in *Instr) string {
	switch in.Op {
	case OpConstF:
		return fmt.Sprintf("%s = %g", f.TempName(in.Dst), in.CF)
	case OpConstI:
		return fmt.Sprintf("%s = %d", f.TempName(in.Dst), in.CI)
	case OpMov:
		return fmt.Sprintf("%s = %s", f.TempName(in.Dst), f.TempName(in.A))
	case OpBin:
		return fmt.Sprintf("%s = %s %s, %s", f.TempName(in.Dst), in.BinOp, f.TempName(in.A), f.TempName(in.B))
	case OpUn:
		return fmt.Sprintf("%s = %s %s", f.TempName(in.Dst), in.UnOp, f.TempName(in.A))
	case OpLoad:
		return fmt.Sprintf("%s = %s[%s]", f.TempName(in.Dst), in.Array, f.TempName(in.A))
	case OpStore:
		return fmt.Sprintf("%s[%s] = %s", in.Array, f.TempName(in.A), f.TempName(in.B))
	}
	return "?"
}

// Dump renders the whole function for inspection tools.
func (f *Fn) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tac %s: %d instrs, %d temps, %d regions\n", f.Loop.Name, len(f.Instrs), len(f.Temps), len(f.Regions))
	for _, in := range f.Instrs {
		pad := strings.Repeat("  ", f.Regions[in.Region].Depth)
		fib := ""
		if in.Fiber >= 0 {
			fib = fmt.Sprintf(" fiber=%d", in.Fiber)
		}
		fmt.Fprintf(&sb, "  %3d %s[s%02d r%d]%s %s\n", in.ID, pad, in.Stmt, in.Region, fib, f.InstrString(in))
	}
	return sb.String()
}
