// Package interp is the semantics oracle: a direct tree-walking interpreter
// for the IR. Every compiled configuration (sequential or fine-grained
// parallel, any core count) must produce exactly the memory image and
// live-out values this interpreter produces — the compiler performs no
// floating-point reassociation, so the comparison is bit-exact.
package interp

import (
	"errors"
	"fmt"
	"math"

	"fgp/internal/ir"
)

// Trap sentinels. The interpreter is the differential-testing ground truth,
// so the conditions under which execution aborts are part of its specified
// semantics: the fuzz oracle classifies an error that wraps one of these as
// a semantic trap (which the compiled path must reproduce) rather than an
// infrastructure failure (deadlock, FIFO mismatch), which it must not.
var (
	// ErrDivByZero is wrapped by integer division/remainder by zero.
	ErrDivByZero = errors.New("integer division by zero")
	// ErrOutOfBounds is wrapped by array accesses outside the declared
	// length.
	ErrOutOfBounds = errors.New("array index out of bounds")
)

// TruncFI is the deterministic F64 -> I64 truncation used by CvtFI. Go's
// built-in conversion is implementation-specific for NaN and out-of-range
// values, so the oracle pins saturating semantics: NaN converts to 0 and
// out-of-range values clamp to the nearest representable int64. In-range
// values truncate toward zero as before. Shared with the simulator's
// threaded engine so both execution paths stay bit-identical.
func TruncFI(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64: // 2^63 is the smallest float64 >= MaxInt64
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// Value is a dynamically-kinded IR value.
type Value struct {
	K ir.Kind
	F float64
	I int64
}

// VF wraps a float value.
func VF(f float64) Value { return Value{K: ir.F64, F: f} }

// VI wraps an integer value.
func VI(i int64) Value { return Value{K: ir.I64, I: i} }

// VB wraps a boolean as the I64 0/1 encoding the IR uses for comparison
// results.
func VB(b bool) Value {
	if b {
		return Value{K: ir.I64, I: 1}
	}
	return Value{K: ir.I64, I: 0}
}

// Result holds the post-execution state of a loop.
type Result struct {
	ArraysF map[string][]float64
	ArraysI map[string][]int64
	Temps   map[string]Value // final values of all temporaries
	// OpCount is the number of compute operations executed (dynamic),
	// useful for sanity-checking kernel sizes.
	OpCount int64
}

type env struct {
	loop    *ir.Loop
	arraysF map[string][]float64
	arraysI map[string][]int64
	temps   map[string]Value
	ops     int64
}

// Run executes the loop and returns its final state. The loop's declared
// array init data is copied, never mutated.
func Run(l *ir.Loop) (*Result, error) {
	e := &env{
		loop:    l,
		arraysF: map[string][]float64{},
		arraysI: map[string][]int64{},
		temps:   map[string]Value{},
	}
	for _, a := range l.Arrays {
		if a.K == ir.F64 {
			e.arraysF[a.Name] = append([]float64(nil), a.InitF...)
		} else {
			e.arraysI[a.Name] = append([]int64(nil), a.InitI...)
		}
	}
	for _, s := range l.Scalars {
		if s.K == ir.F64 {
			e.temps[s.Name] = VF(s.F)
		} else {
			e.temps[s.Name] = VI(s.I)
		}
	}
	for i := l.Start; i < l.End; i += l.Step {
		e.temps[l.Index] = VI(i)
		if err := e.execStmts(l.Body); err != nil {
			return nil, fmt.Errorf("interp: %s at %s=%d: %w", l.Name, l.Index, i, err)
		}
	}
	return &Result{ArraysF: e.arraysF, ArraysI: e.arraysI, Temps: e.temps, OpCount: e.ops}, nil
}

func (e *env) execStmts(stmts []ir.Stmt) error {
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.Assign:
			v, err := e.eval(x.X)
			if err != nil {
				return err
			}
			switch d := x.Dest.(type) {
			case ir.TempDest:
				e.temps[d.Name] = v
			case *ir.ElemDest:
				idx, err := e.eval(d.Index)
				if err != nil {
					return err
				}
				if err := e.store(d.Array, d.K, idx.I, v); err != nil {
					return fmt.Errorf("line %d: %w", x.Src, err)
				}
			}
		case *ir.If:
			c, err := e.eval(x.Cond)
			if err != nil {
				return err
			}
			if c.I != 0 {
				if err := e.execStmts(x.Then); err != nil {
					return err
				}
			} else {
				if err := e.execStmts(x.Else); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (e *env) store(array string, k ir.Kind, idx int64, v Value) error {
	if k == ir.F64 {
		a := e.arraysF[array]
		if idx < 0 || idx >= int64(len(a)) {
			return fmt.Errorf("store %s[%d] %w (len %d)", array, idx, ErrOutOfBounds, len(a))
		}
		a[idx] = v.F
		return nil
	}
	a := e.arraysI[array]
	if idx < 0 || idx >= int64(len(a)) {
		return fmt.Errorf("store %s[%d] %w (len %d)", array, idx, ErrOutOfBounds, len(a))
	}
	a[idx] = v.I
	return nil
}

func (e *env) eval(x ir.Expr) (Value, error) {
	switch n := x.(type) {
	case ir.ConstF:
		return VF(n.V), nil
	case ir.ConstI:
		return VI(n.V), nil
	case ir.Temp:
		v, ok := e.temps[n.Name]
		if !ok {
			return Value{}, fmt.Errorf("read of undefined temp %q", n.Name)
		}
		return v, nil
	case *ir.Load:
		idx, err := e.eval(n.Index)
		if err != nil {
			return Value{}, err
		}
		if n.K == ir.F64 {
			a := e.arraysF[n.Array]
			if idx.I < 0 || idx.I >= int64(len(a)) {
				return Value{}, fmt.Errorf("load %s[%d] %w (len %d)", n.Array, idx.I, ErrOutOfBounds, len(a))
			}
			return VF(a[idx.I]), nil
		}
		a := e.arraysI[n.Array]
		if idx.I < 0 || idx.I >= int64(len(a)) {
			return Value{}, fmt.Errorf("load %s[%d] %w (len %d)", n.Array, idx.I, ErrOutOfBounds, len(a))
		}
		return VI(a[idx.I]), nil
	case *ir.Bin:
		l, err := e.eval(n.L)
		if err != nil {
			return Value{}, err
		}
		r, err := e.eval(n.R)
		if err != nil {
			return Value{}, err
		}
		e.ops++
		return EvalBin(n.Op, l, r)
	case *ir.Un:
		v, err := e.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		e.ops++
		return EvalUn(n.Op, v)
	}
	return Value{}, fmt.Errorf("unknown expression type %T", x)
}

// EvalBin applies a binary operator to two values. It is shared with the
// instruction-set simulator so both execution paths have identical
// arithmetic semantics.
func EvalBin(op ir.BinOp, l, r Value) (Value, error) {
	if l.K == ir.F64 {
		switch op {
		case ir.Add:
			return VF(l.F + r.F), nil
		case ir.Sub:
			return VF(l.F - r.F), nil
		case ir.Mul:
			return VF(l.F * r.F), nil
		case ir.Div:
			return VF(l.F / r.F), nil
		case ir.Min:
			return VF(math.Min(l.F, r.F)), nil
		case ir.Max:
			return VF(math.Max(l.F, r.F)), nil
		case ir.Eq:
			return VB(l.F == r.F), nil
		case ir.Ne:
			return VB(l.F != r.F), nil
		case ir.Lt:
			return VB(l.F < r.F), nil
		case ir.Le:
			return VB(l.F <= r.F), nil
		case ir.Gt:
			return VB(l.F > r.F), nil
		case ir.Ge:
			return VB(l.F >= r.F), nil
		}
		return Value{}, fmt.Errorf("op %s undefined on f64", op)
	}
	switch op {
	case ir.Add:
		return VI(l.I + r.I), nil
	case ir.Sub:
		return VI(l.I - r.I), nil
	case ir.Mul:
		return VI(l.I * r.I), nil
	case ir.Div:
		if r.I == 0 {
			return Value{}, fmt.Errorf("%w (div)", ErrDivByZero)
		}
		return VI(l.I / r.I), nil
	case ir.Rem:
		if r.I == 0 {
			return Value{}, fmt.Errorf("%w (rem)", ErrDivByZero)
		}
		return VI(l.I % r.I), nil
	case ir.Min:
		if l.I < r.I {
			return l, nil
		}
		return r, nil
	case ir.Max:
		if l.I > r.I {
			return l, nil
		}
		return r, nil
	case ir.And:
		return VI(l.I & r.I), nil
	case ir.Or:
		return VI(l.I | r.I), nil
	case ir.Xor:
		return VI(l.I ^ r.I), nil
	case ir.Shl:
		return VI(l.I << uint64(r.I&63)), nil
	case ir.Shr:
		return VI(l.I >> uint64(r.I&63)), nil
	case ir.Eq:
		return VB(l.I == r.I), nil
	case ir.Ne:
		return VB(l.I != r.I), nil
	case ir.Lt:
		return VB(l.I < r.I), nil
	case ir.Le:
		return VB(l.I <= r.I), nil
	case ir.Gt:
		return VB(l.I > r.I), nil
	case ir.Ge:
		return VB(l.I >= r.I), nil
	}
	return Value{}, fmt.Errorf("op %s undefined on i64", op)
}

// EvalUn applies a unary operator; shared with the simulator.
func EvalUn(op ir.UnOp, v Value) (Value, error) {
	switch op {
	case ir.Neg:
		if v.K == ir.F64 {
			return VF(-v.F), nil
		}
		return VI(-v.I), nil
	case ir.Not:
		return VB(v.I == 0), nil
	case ir.Sqrt:
		return VF(math.Sqrt(v.F)), nil
	case ir.Exp:
		return VF(math.Exp(v.F)), nil
	case ir.Log:
		return VF(math.Log(v.F)), nil
	case ir.Abs:
		if v.K == ir.F64 {
			return VF(math.Abs(v.F)), nil
		}
		if v.I < 0 {
			return VI(-v.I), nil
		}
		return v, nil
	case ir.Floor:
		return VF(math.Floor(v.F)), nil
	case ir.CvtIF:
		return VF(float64(v.I)), nil
	case ir.CvtFI:
		return VI(TruncFI(v.F)), nil
	}
	return Value{}, fmt.Errorf("unknown unary op %s", op)
}
