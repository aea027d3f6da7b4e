package speculate

import (
	"testing"

	"fgp/internal/interp"
	"fgp/internal/ir"
)

// equivalent runs both loops on the interpreter and compares every array
// bit-for-bit.
func equivalent(t *testing.T, a, b *ir.Loop) {
	t.Helper()
	ra, err := interp.Run(a)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	rb, err := interp.Run(b)
	if err != nil {
		t.Fatalf("speculated: %v", err)
	}
	for name, av := range ra.ArraysF {
		bv := rb.ArraysF[name]
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("array %s differs at %d: %v vs %v", name, i, av[i], bv[i])
			}
		}
	}
	for name, av := range ra.ArraysI {
		bv := rb.ArraysI[name]
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("array %s differs at %d: %v vs %v", name, i, av[i], bv[i])
			}
		}
	}
}

func dataLoop(body func(b *ir.Builder)) *ir.Loop {
	b := ir.NewBuilder("spec", "i", 0, 32, 1)
	data := make([]float64, 32)
	for i := range data {
		data[i] = float64(i%7) - 3
	}
	b.ArrayF("a", data)
	b.ArrayF("o", make([]float64, 32))
	body(b)
	return b.MustBuild()
}

func TestSpeculatePureBranches(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c, func() {
			b.Def("v", ir.SqrtE(ir.AbsE(ir.LDF("a", i))))
		}, func() {
			b.Def("v", ir.MulE(ir.LDF("a", i), ir.F(-0.5)))
		})
		b.StoreF("o", i, b.T("v"))
	})
	out, res := Apply(l)
	if res.Transformed != 1 || res.Candidates != 1 {
		t.Fatalf("transformed %d of %d candidates, want 1 of 1", res.Transformed, res.Candidates)
	}
	if err := ir.Validate(out); err != nil {
		t.Fatal(err)
	}
	equivalent(t, l, out)

	// The rewritten If must contain only selection moves.
	var iff *ir.If
	ir.WalkStmts(out.Body, func(s ir.Stmt) {
		if x, ok := s.(*ir.If); ok {
			iff = x
		}
	})
	if iff == nil {
		t.Fatal("speculated loop lost its If")
	}
	for _, s := range append(append([]ir.Stmt{}, iff.Then...), iff.Else...) {
		a, ok := s.(*ir.Assign)
		if !ok {
			t.Fatalf("branch contains %T", s)
		}
		if _, isTemp := a.X.(ir.Temp); !isTemp {
			t.Errorf("branch statement %v is not a selection move", a)
		}
	}
}

func TestSpeculateSkipsStores(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c, func() {
			b.StoreF("o", i, ir.F(1))
		}, func() {
			b.StoreF("o", i, ir.F(2))
		})
	})
	_, res := Apply(l)
	if res.Transformed != 0 {
		t.Error("branches with stores must not be speculated")
	}
}

func TestSpeculateSkipsIntegerDivision(t *testing.T) {
	b := ir.NewBuilder("spec", "i", 0, 16, 1)
	b.ArrayI("p", []int64{1, 2, 0, 4, 1, 2, 0, 4, 1, 2, 0, 4, 1, 2, 0, 4})
	b.ArrayI("o", make([]int64, 16))
	i := b.Idx()
	d := b.Def("d", ir.LDI("p", i))
	c := b.Def("c", ir.NeE(d, ir.I(0)))
	b.If(c, func() {
		b.Def("v", ir.DivE(ir.I(100), b.T("d")))
	}, func() {
		b.Def("v", ir.I(0))
	})
	b.StoreI("o", i, b.T("v"))
	l := b.MustBuild()
	out, res := Apply(l)
	if res.Transformed != 0 {
		t.Fatal("a guarded integer division must not be hoisted")
	}
	equivalent(t, l, out)
}

func TestSpeculateSkipsAccumulators(t *testing.T) {
	b := ir.NewBuilder("spec", "i", 0, 16, 1)
	b.ArrayF("a", make([]float64, 16))
	acc := b.ScalarF("acc", 0)
	_ = acc
	b.LiveOut("acc")
	i := b.Idx()
	c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
	b.If(c, func() {
		b.Def("acc", ir.AddE(b.T("acc"), ir.F(1)))
	}, func() {
		b.Def("acc", ir.SubE(b.T("acc"), ir.F(1)))
	})
	l := b.MustBuild()
	_, res := Apply(l)
	if res.Transformed != 0 {
		t.Error("recurrence updates must not be speculated")
	}
}

func TestSpeculateSkipsNestedIf(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c1 := b.Def("c1", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c1, func() {
			c2 := b.Def("c2", ir.LtE(ir.LDF("a", i), ir.F(2)))
			b.If(c2, func() {
				b.Def("v", ir.F(1))
			}, func() {
				b.Def("v", ir.F(2))
			})
		}, func() {
			b.Def("v", ir.F(3))
		})
		b.StoreF("o", i, b.T("v"))
	})
	out, res := Apply(l)
	// The inner if is speculable; the outer (containing an If after the
	// rewrite) is not.
	if res.Transformed != 1 {
		t.Errorf("transformed = %d, want 1 (inner only)", res.Transformed)
	}
	if res.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", res.Candidates)
	}
	if err := ir.Validate(out); err != nil {
		t.Fatal(err)
	}
	equivalent(t, l, out)
}

func TestSpeculateSelfReference(t *testing.T) {
	// v = v + 1 inside a branch where v is defined before the if: the use
	// refers to the outer value and must not be captured by the rename.
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		b.Def("v", ir.LDF("a", i))
		c := b.Def("c", ir.GtE(b.T("v"), ir.F(0)))
		b.If(c, func() {
			b.Def("v", ir.AddE(b.T("v"), ir.F(1)))
		}, func() {
			b.Def("v", ir.SubE(b.T("v"), ir.F(1)))
		})
		b.StoreF("o", i, b.T("v"))
	})
	out, res := Apply(l)
	if res.Transformed != 1 {
		t.Fatalf("transformed = %d, want 1", res.Transformed)
	}
	if err := ir.Validate(out); err != nil {
		t.Fatal(err)
	}
	equivalent(t, l, out)
}

func TestSpeculateMultipleDefsInBranch(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c, func() {
			b.Def("x", ir.MulE(ir.LDF("a", i), ir.F(2)))
			b.Def("x", ir.AddE(b.T("x"), ir.F(1))) // redefinition within branch
			b.Def("y", ir.MulE(b.T("x"), ir.F(3)))
		}, func() {
			b.Def("x", ir.F(0))
			b.Def("y", ir.F(0))
		})
		b.StoreF("o", i, ir.AddE(b.T("x"), b.T("y")))
	})
	out, res := Apply(l)
	if res.Transformed != 1 {
		t.Fatalf("transformed = %d, want 1", res.Transformed)
	}
	if err := ir.Validate(out); err != nil {
		t.Fatal(err)
	}
	equivalent(t, l, out)
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c, func() {
			b.Def("v", ir.F(1))
		}, func() {
			b.Def("v", ir.F(2))
		})
		b.StoreF("o", i, b.T("v"))
	})
	before := len(l.Body)
	Apply(l)
	if len(l.Body) != before {
		t.Error("Apply mutated the input loop")
	}
}

// TestApplyDoesNotMutateNestedIf: rewriting an inner conditional leaves
// the input's outer If untouched, so one loop speculated twice yields the
// same output both times. Callers such as fgpd and the fuzz oracle compile
// one loop object many times.
func TestApplyDoesNotMutateNestedIf(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		c1 := b.Def("c1", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c1, func() {
			c2 := b.Def("c2", ir.LtE(ir.LDF("a", i), ir.F(2)))
			b.If(c2, func() {
				b.Def("v", ir.F(1))
			}, func() {
				b.Def("v", ir.F(2))
			})
		}, func() {
			b.Def("v", ir.F(3))
		})
		b.StoreF("o", i, b.T("v"))
	})
	before := ir.Print(l)
	first, _ := Apply(l)
	if after := ir.Print(l); after != before {
		t.Fatalf("Apply mutated the input loop:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	second, res := Apply(l)
	if res.Transformed != 1 {
		t.Errorf("second Apply transformed %d ifs, want 1", res.Transformed)
	}
	if a, b := ir.Print(first), ir.Print(second); a != b {
		t.Errorf("second Apply differs from the first:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

func TestEmptyElseBranch(t *testing.T) {
	l := dataLoop(func(b *ir.Builder) {
		i := b.Idx()
		b.Def("v", ir.F(0))
		c := b.Def("c", ir.GtE(ir.LDF("a", i), ir.F(0)))
		b.If(c, func() {
			b.Def("v", ir.SqrtE(ir.AbsE(ir.LDF("a", i))))
		}, nil)
		b.StoreF("o", i, b.T("v"))
	})
	out, res := Apply(l)
	if res.Transformed != 1 {
		t.Fatalf("transformed = %d, want 1", res.Transformed)
	}
	if err := ir.Validate(out); err != nil {
		t.Fatal(err)
	}
	equivalent(t, l, out)
}
