// Package speculate implements the paper's limited control-flow speculation
// (Section III-H, Fig 10): if-then-else statements whose branch bodies are
// side-effect free are rewritten so both bodies execute ahead of time,
// before the condition value is known, into renamed temporaries; the
// branches reduce to cheap selection moves. Because nothing speculated
// writes memory, no rollback is ever needed — the property the paper relies
// on to keep every enqueue statically paired with its dequeue.
//
// After this rewrite the fiber partitioner naturally places the two
// (now unconditional) computations on different cores, where they run
// concurrently with the condition evaluation.
package speculate

import (
	"fmt"

	"fgp/internal/ir"
)

// Result reports what the pass did.
type Result struct {
	// Transformed counts if-statements rewritten.
	Transformed int
	// Candidates counts if-statements inspected (all ifs in the body).
	Candidates int
}

// Apply returns a copy of the loop with eligible conditionals speculated.
// The input loop is not modified.
func Apply(l *ir.Loop) (*ir.Loop, Result) {
	out := l.Clone()
	s := &speculator{carried: map[string]bool{}}
	// Scalar parameters redefined by the body are recurrences (reduction
	// accumulators); speculating their updates serializes extra work onto
	// the recurrence chain, so they are never eligible.
	for _, sc := range l.Scalars {
		s.carried[sc.Name] = true
	}
	out.Body = s.rewrite(out.Body)
	return out, s.res
}

type speculator struct {
	res     Result
	fresh   int
	carried map[string]bool
}

func (s *speculator) rewrite(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, st := range stmts {
		iff, ok := st.(*ir.If)
		if !ok {
			out = append(out, st)
			continue
		}
		// Transform inner conditionals first; an if whose branches contain
		// only speculable inner ifs is still not eligible itself (the inner
		// rewrite leaves an If for the selects), matching the paper's
		// restriction to simple branch bodies. The rewrite goes into a copy:
		// the input loop shares its statements with the output.
		iff = &ir.If{Src: iff.Src, Cond: iff.Cond, Then: s.rewrite(iff.Then), Else: s.rewrite(iff.Else)}
		s.res.Candidates++

		hoisted, newIf, ok := s.speculateIf(iff)
		if !ok {
			out = append(out, iff)
			continue
		}
		s.res.Transformed++
		out = append(out, hoisted...)
		out = append(out, newIf)
	}
	return out
}

// speculateIf attempts the rewrite for one conditional. It succeeds only
// when every statement of both branches assigns to a temporary (no stores,
// no nested control flow) and no branch temp is read before it is written
// within its branch.
func (s *speculator) speculateIf(iff *ir.If) (hoisted []ir.Stmt, repl ir.Stmt, ok bool) {
	thenRen, ok := s.renameBranch(iff.Then, "t")
	if !ok {
		return nil, nil, false
	}
	elseRen, ok := s.renameBranch(iff.Else, "e")
	if !ok {
		return nil, nil, false
	}
	if len(thenRen.stmts) == 0 && len(elseRen.stmts) == 0 {
		return nil, nil, false
	}
	hoisted = append(hoisted, thenRen.stmts...)
	hoisted = append(hoisted, elseRen.stmts...)
	repl = &ir.If{
		Src:  iff.Src,
		Cond: iff.Cond,
		Then: thenRen.selects,
		Else: elseRen.selects,
	}
	return hoisted, repl, true
}

type renamed struct {
	stmts   []ir.Stmt // hoisted, with defined temps renamed
	selects []ir.Stmt // name = renamed-name moves left in the branch
}

func (s *speculator) renameBranch(body []ir.Stmt, tag string) (renamed, bool) {
	var r renamed
	ren := map[string]string{} // original temp -> speculative temp
	order := []string{}
	for _, st := range body {
		a, ok := st.(*ir.Assign)
		if !ok {
			return r, false // nested control flow
		}
		d, ok := a.Dest.(ir.TempDest)
		if !ok {
			return r, false // store: a side effect, not speculable
		}
		if s.carried[d.Name] {
			return r, false // recurrence update: speculation adds serial work
		}
		if faultable(a.X) {
			return r, false // executing ahead of time could trap
		}
		// Uses see prior renames; a use of a temp defined later in this
		// branch would be a loop-carried read, which renaming would break.
		nx, bad := renameExpr(a.X, ren, d.Name)
		if bad {
			return r, false
		}
		if _, seen := ren[d.Name]; !seen {
			s.fresh++
			ren[d.Name] = fmt.Sprintf("%s#%s%d", d.Name, tag, s.fresh)
			order = append(order, d.Name)
		}
		r.stmts = append(r.stmts, &ir.Assign{
			Src:  a.Src,
			Dest: ir.TempDest{Name: ren[d.Name], K: d.K},
			X:    nx,
		})
	}
	for _, name := range order {
		k := tempKind(body, name)
		r.selects = append(r.selects, &ir.Assign{
			Src:  body[len(body)-1].Line(),
			Dest: ir.TempDest{Name: name, K: k},
			X:    ir.Temp{Name: ren[name], K: k},
		})
	}
	return r, true
}

// renameExpr substitutes renamed temps. bad is true when the expression
// reads the temp currently being defined before its in-branch rename exists
// AND it is not an outer value — that case is a self-reference (x = x + 1)
// whose outer value the rename would capture incorrectly only if x was
// already renamed; reading the outer value is fine.
func renameExpr(e ir.Expr, ren map[string]string, _ string) (ir.Expr, bool) {
	switch n := e.(type) {
	case ir.ConstF, ir.ConstI:
		return e, false
	case ir.Temp:
		if nn, ok := ren[n.Name]; ok {
			return ir.Temp{Name: nn, K: n.K}, false
		}
		return e, false
	case *ir.Load:
		idx, bad := renameExpr(n.Index, ren, "")
		if bad {
			return nil, true
		}
		return &ir.Load{Array: n.Array, K: n.K, Index: idx}, false
	case *ir.Bin:
		l, bad := renameExpr(n.L, ren, "")
		if bad {
			return nil, true
		}
		rr, bad := renameExpr(n.R, ren, "")
		if bad {
			return nil, true
		}
		return &ir.Bin{Op: n.Op, L: l, R: rr}, false
	case *ir.Un:
		x, bad := renameExpr(n.X, ren, "")
		if bad {
			return nil, true
		}
		return &ir.Un{Op: n.Op, X: x}, false
	}
	return nil, true
}

// faultable reports whether evaluating the expression unconditionally could
// trap: integer division/remainder (divide-by-zero) disqualifies a branch
// from speculation. Loads are treated as safe non-faulting accesses, the
// usual assumption for compiler-controlled speculation of code whose
// indices stay in bounds on both paths; kernels honoring the paper's
// patterns satisfy this.
func faultable(e ir.Expr) bool {
	bad := false
	ir.WalkExpr(e, func(n ir.Expr) {
		if b, ok := n.(*ir.Bin); ok {
			if (b.Op == ir.Div || b.Op == ir.Rem) && b.L.Kind() == ir.I64 {
				bad = true
			}
		}
	})
	return bad
}

func tempKind(body []ir.Stmt, name string) ir.Kind {
	for _, st := range body {
		if a, ok := st.(*ir.Assign); ok {
			if d, ok := a.Dest.(ir.TempDest); ok && d.Name == name {
				return d.K
			}
		}
	}
	return ir.F64
}
