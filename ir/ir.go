// Package ir is the public surface of the compiler's input representation:
// typed expression trees, statements, and counted loops, plus the Builder
// used to author them. It re-exports the internal implementation so that
// user code, the examples, and the evaluation kernels share one type
// universe.
//
// A loop is authored with a Builder:
//
//	b := ir.NewBuilder("dot", "i", 0, 1024, 1)
//	b.ArrayF("x", xs)
//	b.ArrayF("y", ys)
//	acc := b.ScalarF("acc", 0)
//	_ = acc
//	b.LiveOut("acc")
//	i := b.Idx()
//	b.Def("acc", ir.AddE(b.T("acc"), ir.MulE(ir.LDF("x", i), ir.LDF("y", i))))
//	loop := b.MustBuild()
package ir

import "fgp/internal/ir"

// Core types.
type (
	// Kind is the value class of an expression (F64 or I64).
	Kind = ir.Kind
	// Expr is a node of an expression tree.
	Expr = ir.Expr
	// Stmt is a loop-body statement.
	Stmt = ir.Stmt
	// Loop is the unit of compilation.
	Loop = ir.Loop
	// Builder assembles loops.
	Builder = ir.Builder
	// BinOp and UnOp enumerate operators.
	BinOp = ir.BinOp
	UnOp  = ir.UnOp
	// ArrayDecl and ScalarDecl describe the data environment.
	ArrayDecl  = ir.ArrayDecl
	ScalarDecl = ir.ScalarDecl
	// Assign and If are the two statement forms.
	Assign = ir.Assign
	If     = ir.If
)

// Value kinds.
const (
	F64 = ir.F64
	I64 = ir.I64
)

// NewBuilder starts a loop named name with induction variable index
// running start..end (exclusive) with the given step.
func NewBuilder(name, index string, start, end, step int64) *Builder {
	return ir.NewBuilder(name, index, start, end, step)
}

// Validate checks the structural invariants of a loop.
func Validate(l *Loop) error { return ir.Validate(l) }

// Print renders a loop as pseudo-source.
func Print(l *Loop) string { return ir.Print(l) }

// MarshalLoop encodes a loop as deterministic JSON — the wire format the
// fgpd service accepts and its artifact store keeps.
func MarshalLoop(l *Loop) ([]byte, error) { return ir.MarshalLoop(l) }

// UnmarshalLoop decodes and validates a loop from its JSON encoding.
func UnmarshalLoop(data []byte) (*Loop, error) { return ir.UnmarshalLoop(data) }

// Literal and reference constructors.
var (
	F   = ir.F   // float literal
	I   = ir.I   // integer literal
	TF  = ir.TF  // reference to an F64 temporary
	TI  = ir.TI  // reference to an I64 temporary
	LDF = ir.LDF // load from an F64 array
	LDI = ir.LDI // load from an I64 array
)

// Binary operators (the E suffix avoids clashing with operator constants).
var (
	AddE = ir.AddE
	SubE = ir.SubE
	MulE = ir.MulE
	DivE = ir.DivE
	RemE = ir.RemE
	MinE = ir.MinE
	MaxE = ir.MaxE
	AndE = ir.AndE
	OrE  = ir.OrE
	XorE = ir.XorE
	ShlE = ir.ShlE
	ShrE = ir.ShrE
	EqE  = ir.EqE
	NeE  = ir.NeE
	LtE  = ir.LtE
	LeE  = ir.LeE
	GtE  = ir.GtE
	GeE  = ir.GeE
)

// Unary operators and intrinsics.
var (
	NegE   = ir.NegE
	NotE   = ir.NotE
	SqrtE  = ir.SqrtE
	ExpE   = ir.ExpE
	LogE   = ir.LogE
	AbsE   = ir.AbsE
	FloorE = ir.FloorE
	IToF   = ir.IToF
	FToI   = ir.FToI
)
