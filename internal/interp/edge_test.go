package interp

import (
	"errors"
	"math"
	"testing"

	"fgp/internal/ir"
)

// These tests pin the interpreter's edge semantics as the differential
// oracle's ground truth (internal/fuzz): every trap is a classified
// sentinel, and every implementation-defined corner of Go arithmetic is
// replaced by a single deterministic rule both the interpreter and the
// simulator engines share.

// TestTrapSentinels: traps must be matchable with errors.Is so the fuzz
// oracle can tell a legitimate program outcome (the compiled code must
// reproduce it) from an infrastructure failure (always a bug).
func TestTrapSentinels(t *testing.T) {
	if _, err := EvalBin(ir.Div, VI(1), VI(0)); !errors.Is(err, ErrDivByZero) {
		t.Errorf("div: got %v, want ErrDivByZero", err)
	}
	if _, err := EvalBin(ir.Rem, VI(1), VI(0)); !errors.Is(err, ErrDivByZero) {
		t.Errorf("rem: got %v, want ErrDivByZero", err)
	}

	load := ir.NewBuilder("oobload", "i", 0, 8, 1)
	load.ArrayF("x", make([]float64, 4))
	load.ArrayF("o", make([]float64, 8))
	load.StoreF("o", load.Idx(), ir.LDF("x", load.Idx()))
	if _, err := Run(load.MustBuild()); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("oob load: got %v, want ErrOutOfBounds", err)
	}

	store := ir.NewBuilder("oobstore", "i", 0, 8, 1)
	store.ArrayF("o", make([]float64, 4))
	store.StoreF("o", store.Idx(), ir.F(1))
	if _, err := Run(store.MustBuild()); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("oob store: got %v, want ErrOutOfBounds", err)
	}

	div := ir.NewBuilder("div0", "i", 0, 4, 1)
	div.ArrayI("o", make([]int64, 4))
	div.StoreI("o", div.Idx(), ir.DivE(ir.I(1), div.Idx()))
	if _, err := Run(div.MustBuild()); !errors.Is(err, ErrDivByZero) {
		t.Errorf("run div0: got %v, want ErrDivByZero", err)
	}
}

// TestTruncFISaturation: the Go spec leaves float-to-int conversion of NaN
// and out-of-range values implementation-defined, so the pipeline pins its
// own rule — NaN converts to 0, everything else saturates — and TruncFI is
// the single definition both the interpreter and the threaded engine call.
func TestTruncFISaturation(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{9.3e18, math.MaxInt64},  // just above MaxInt64
		{-9.3e18, math.MinInt64}, // just below MinInt64
		{3.9, 3},
		{-3.9, -3},
		{0, 0},
	}
	for _, c := range cases {
		if got := TruncFI(c.in); got != c.want {
			t.Errorf("TruncFI(%v) = %d, want %d", c.in, got, c.want)
		}
		v, err := EvalUn(ir.CvtFI, VF(c.in))
		if err != nil || v.I != c.want {
			t.Errorf("EvalUn(CvtFI, %v) = %v, %v; want %d", c.in, v, err, c.want)
		}
	}
}

// TestNaNSemantics pins IEEE NaN behavior the oracle depends on: NaN
// propagates through arithmetic and min/max, every ordered comparison with
// NaN is false, and the domain-error unaries produce NaN rather than
// trapping.
func TestNaNSemantics(t *testing.T) {
	nan := VF(math.NaN())
	for _, op := range []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Min, ir.Max} {
		v, err := EvalBin(op, nan, VF(2))
		if err != nil || !math.IsNaN(v.F) {
			t.Errorf("%s(NaN, 2) = %v, %v; want NaN", op, v, err)
		}
	}
	for _, op := range []ir.BinOp{ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Eq} {
		v, err := EvalBin(op, nan, nan)
		if err != nil || v.I != 0 {
			t.Errorf("%s(NaN, NaN) = %v, %v; want 0", op, v, err)
		}
	}
	if v, _ := EvalBin(ir.Ne, nan, nan); v.I != 1 {
		t.Errorf("Ne(NaN, NaN) = %v, want 1", v)
	}
	if v, err := EvalUn(ir.Sqrt, VF(-1)); err != nil || !math.IsNaN(v.F) {
		t.Errorf("sqrt(-1) = %v, %v; want NaN", v, err)
	}
	if v, err := EvalUn(ir.Log, VF(-1)); err != nil || !math.IsNaN(v.F) {
		t.Errorf("log(-1) = %v, %v; want NaN", v, err)
	}
	// 0/0 is the arithmetic NaN source; FP division never traps.
	if v, err := EvalBin(ir.Div, VF(0), VF(0)); err != nil || !math.IsNaN(v.F) {
		t.Errorf("0/0 = %v, %v; want NaN", v, err)
	}
}
