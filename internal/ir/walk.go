package ir

// WalkExpr calls f for every node of the expression tree in post-order
// (children before parents), matching the traversal order of the fiber
// partitioning algorithm.
func WalkExpr(e Expr, f func(Expr)) {
	switch x := e.(type) {
	case *Bin:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Un:
		WalkExpr(x.X, f)
	case *Load:
		WalkExpr(x.Index, f)
	}
	f(e)
}

// WalkStmts calls f for every statement, recursing into conditionals.
func WalkStmts(stmts []Stmt, f func(Stmt)) {
	for _, s := range stmts {
		f(s)
		if iff, ok := s.(*If); ok {
			WalkStmts(iff.Then, f)
			WalkStmts(iff.Else, f)
		}
	}
}

// StmtExprs calls f for every top-level expression of a statement: the RHS,
// the store index (if any), and the condition (for If). It does not recurse
// into branch bodies.
func StmtExprs(s Stmt, f func(Expr)) {
	switch x := s.(type) {
	case *Assign:
		f(x.X)
		if ed, ok := x.Dest.(*ElemDest); ok {
			f(ed.Index)
		}
	case *If:
		f(x.Cond)
	}
}

// TempUses collects the names of all temporaries read anywhere in the
// expression.
func TempUses(e Expr, into map[string]Kind) {
	WalkExpr(e, func(n Expr) {
		if t, ok := n.(Temp); ok {
			into[t.Name] = t.K
		}
	})
}

// CountStmts returns the number of statements in the list, recursing into
// conditional branches. The fuzz shrinker uses it as the size metric a
// minimization step must strictly decrease.
func CountStmts(stmts []Stmt) int {
	n := 0
	WalkStmts(stmts, func(Stmt) { n++ })
	return n
}

// CountOps returns the number of compute operations (internal nodes,
// excluding loads) in the expression tree.
func CountOps(e Expr) int {
	n := 0
	WalkExpr(e, func(x Expr) {
		switch x.(type) {
		case *Bin, *Un:
			n++
		}
	})
	return n
}

// Depth returns the height of the expression tree (a leaf has depth 1).
func Depth(e Expr) int {
	switch x := e.(type) {
	case *Bin:
		l, r := Depth(x.L), Depth(x.R)
		if r > l {
			l = r
		}
		return l + 1
	case *Un:
		return Depth(x.X) + 1
	case *Load:
		return Depth(x.Index) + 1
	default:
		return 1
	}
}
