package frontend

import (
	"math"
	"strings"
	"testing"

	"fgp/internal/ir"
	"fgp/internal/kernels"
)

// TestKernelRoundTrip is the acceptance criterion for the source front
// door: formatting each of the 18 built-in kernels and parsing the result
// must reproduce a loop whose canonical wire encoding is byte-identical to
// the hand-built kernel's. The compile cache content-addresses that
// encoding, so byte equality here IS cache-entry equality: an .fgp source
// for a kernel hits the artifact compiled for the builder version.
func TestKernelRoundTrip(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			l := k.Build()
			src := Format(l)
			l2, err := Parse([]byte(src))
			if err != nil {
				t.Fatalf("formatted kernel failed to reparse: %v\nsource:\n%s", err, src)
			}
			mustEqualLoops(t, l, l2, src)
			// Builder-produced loops number statements by pre-order
			// ordinal, so their normal form needs no @ annotations.
			if strings.Contains(src, "@") {
				t.Errorf("builder kernel formatted with @ annotations:\n%s", src)
			}
		})
	}
}

// TestFormatIdempotent: Format(Parse(Format(l))) == Format(l). Together
// with TestKernelRoundTrip this pins Format as a normal form.
func TestFormatIdempotent(t *testing.T) {
	for _, k := range kernels.All() {
		l := k.Build()
		src := Format(l)
		l2, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if src2 := Format(l2); src2 != src {
			t.Errorf("%s: Format is not idempotent:\n--- first\n%s\n--- second\n%s", k.Name, src, src2)
		}
	}
}

// TestRoundTripExpressionShapes covers the operator corners the kernels
// may not reach: precedence inversions, folded negative literals, Neg of a
// literal (which must NOT fold), specials, and @ annotations.
func TestRoundTripExpressionShapes(t *testing.T) {
	neg := func(e ir.Expr) ir.Expr { return &ir.Un{Op: ir.Neg, X: e} }
	loops := []*ir.Loop{
		{
			Name: "prec", Index: "i", Start: 0, End: 2, Step: 1,
			Arrays: []*ir.ArrayDecl{{Name: "a", K: ir.F64, InitF: []float64{1, 2}}},
			Body: []ir.Stmt{
				// a[i] = (a[i] + 1.5) * -(2.0) — Neg of a literal.
				&ir.Assign{Src: 1, Dest: &ir.ElemDest{Array: "a", K: ir.F64, Index: ir.TI("i")},
					X: ir.MulE(ir.AddE(ir.LDF("a", ir.TI("i")), ir.F(1.5)), neg(ir.F(2)))},
				// t = a[i] - -3.25 — a folded negative literal operand.
				&ir.Assign{Src: 2, Dest: ir.DestTempF("t"),
					X: ir.SubE(ir.LDF("a", ir.TI("i")), ir.F(-3.25))},
				// u = -(t + 1.0) / t — unary over a parenthesized sum.
				&ir.Assign{Src: 3, Dest: ir.DestTempF("u"),
					X: ir.DivE(neg(ir.AddE(ir.TF("t"), ir.F(1))), ir.TF("t"))},
			},
			LiveOut: []string{"t", "u"},
		},
		{
			Name: "ints", Index: "j", Start: 1, End: 9, Step: 2,
			Arrays:  []*ir.ArrayDecl{{Name: "g", K: ir.I64, InitI: []int64{7, 8, 9, 10, 11, 12, 13, 14, 15}}},
			Scalars: []ir.ScalarDecl{{Name: "m", K: ir.I64, I: -5}},
			Body: []ir.Stmt{
				// g[j] = (g[j] ^ m) & (m | 3) << 1 — shift/bitwise stack.
				&ir.Assign{Src: 1, Dest: &ir.ElemDest{Array: "g", K: ir.I64, Index: ir.TI("j")},
					X: ir.AndE(ir.XorE(ir.LDI("g", ir.TI("j")), ir.TI("m")),
						ir.ShlE(ir.OrE(ir.TI("m"), ir.I(3)), ir.I(1)))},
				// b = !(g[j] % 2 == 0) — Not over a comparison.
				&ir.Assign{Src: 2, Dest: ir.DestTempI("b"),
					X: ir.NotE(ir.EqE(ir.RemE(ir.LDI("g", ir.TI("j")), ir.I(2)), ir.I(0)))},
				&ir.If{Src: 3, Cond: ir.TI("b"), Then: []ir.Stmt{
					&ir.Assign{Src: 4, Dest: ir.DestTempI("c"), X: ir.MinE(ir.TI("m"), ir.I(-1))},
				}, Else: []ir.Stmt{
					&ir.Assign{Src: 5, Dest: ir.DestTempI("c"), X: ir.MaxE(ir.TI("m"), neg(ir.I(1)))},
				}},
				&ir.Assign{Src: 6, Dest: ir.DestTempI("d"), X: ir.FToI(ir.IToF(ir.TI("c")))},
			},
			LiveOut: []string{"d"},
		},
		{
			// Src lines diverging from pre-order ordinals force @ output.
			Name: "lines", Index: "i", Start: 0, End: 1, Step: 1,
			Arrays: []*ir.ArrayDecl{{Name: "a", K: ir.F64, InitF: []float64{0}}},
			Body: []ir.Stmt{
				&ir.Assign{Src: 41, Dest: ir.DestTempF("t"), X: ir.F(1)},
				&ir.Assign{Src: 2, Dest: &ir.ElemDest{Array: "a", K: ir.F64, Index: ir.TI("i")}, X: ir.TF("t")},
			},
		},
		{
			Name: "specials", Index: "i", Start: 0, End: 1, Step: 1,
			Arrays: []*ir.ArrayDecl{{Name: "a", K: ir.F64, InitF: []float64{1.5}}},
			Scalars: []ir.ScalarDecl{
				{Name: "qnan", K: ir.F64, F: nan()},
				{Name: "pinf", K: ir.F64, F: inf(1)},
				{Name: "ninf", K: ir.F64, F: inf(-1)},
			},
			Body: []ir.Stmt{
				&ir.Assign{Src: 1, Dest: &ir.ElemDest{Array: "a", K: ir.F64, Index: ir.TI("i")},
					X: ir.MaxE(ir.TF("qnan"), ir.MinE(ir.TF("pinf"), ir.TF("ninf")))},
			},
		},
	}
	for _, l := range loops {
		t.Run(l.Name, func(t *testing.T) {
			if err := ir.Validate(l); err != nil {
				t.Fatalf("test loop invalid: %v", err)
			}
			src := Format(l)
			l2, err := Parse([]byte(src))
			if err != nil {
				t.Fatalf("reparse: %v\nsource:\n%s", err, src)
			}
			mustEqualLoops(t, l, l2, src)
		})
	}
}

// TestFormatAnnotatesDivergentLines pins the @ emission rule directly.
func TestFormatAnnotatesDivergentLines(t *testing.T) {
	l := mustParse(t, `
array f64 a[] = {1.0};
for i = 0; i < 1; i += 1 {
  @9 t = 1.0;
  a[i] = t;
}
`)
	src := Format(l)
	if !strings.Contains(src, "@9 t = 1.0;") {
		t.Errorf("annotation lost:\n%s", src)
	}
	if strings.Contains(src, "@2") {
		t.Errorf("ordinal-matching line annotated:\n%s", src)
	}
}

func nan() float64      { return math.NaN() }
func inf(s int) float64 { return math.Inf(s) }
