// Package fuzz is the differential fuzzing harness for the whole compiler
// pipeline. It generates random (but valid) IR loops, runs each one through
// the reference interpreter as ground truth and through the full
// compile-and-simulate path across a configuration matrix (core counts,
// speculation, tree normalization, threaded vs. reference engine), and demands
// bit-identical final memory and live-out values everywhere, plus a set of
// metamorphic invariants (determinism across repeat runs, zero queue
// traffic on one core). A shrinker minimizes failing kernels by statement
// and expression deletion so a crasher lands as a small readable loop.
//
// The generator decodes a byte string: every structural decision consumes
// one byte of the input while it lasts and falls back to a deterministic
// PRNG continuation afterwards, so the same code path serves seeded batch
// runs (cmd/fgpfuzz), the committed crasher corpus, and Go's native fuzzing
// engine (go test -fuzz), whose mutations of the byte string translate
// directly into structural mutations of the loop.
package fuzz

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"fgp/internal/ir"
)

// GenConfig bounds the generated loop shapes.
type GenConfig struct {
	// Trips is the loop trip count; arrays have Trips+2 elements. 0 means
	// the default (20).
	Trips int
	// MaxStmts caps the random top-level statements (the generator appends
	// a fixed observable epilogue on top). 0 means the default (10).
	MaxStmts int
	// MaxDepth caps expression tree depth. 0 means the default (3).
	MaxDepth int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Trips <= 0 {
		c.Trips = 20
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 10
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	return c
}

// src is the decision stream: bytes first, PRNG continuation after. Mixing
// each consumed byte into the xorshift state keeps the continuation
// dependent on the whole prefix, so distinct inputs diverge everywhere.
type src struct {
	data []byte
	pos  int
	s    uint64
}

func newSrc(data []byte) *src {
	return &src{data: data, s: 0x9e3779b97f4a7c15}
}

func (r *src) rnd(n int) int {
	if n <= 1 {
		return 0
	}
	var b byte
	if r.pos < len(r.data) {
		b = r.data[r.pos]
		r.pos++
	}
	r.s ^= uint64(b) + 0x9e3779b97f4a7c15 + (r.s << 6) + (r.s >> 2)
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return int((r.s * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
}

// SeedBytes encodes a numeric seed as the canonical 8-byte input, so batch
// runs, crasher files, and go-fuzz corpus entries share one format.
func SeedBytes(seed uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	return b[:]
}

// Generate builds the loop for a numeric seed (shorthand for
// FromBytes(SeedBytes(seed), cfg)).
func Generate(seed uint64, cfg GenConfig) *ir.Loop {
	return FromBytes(SeedBytes(seed), cfg)
}

// FromBytes decodes a byte string into a valid loop. The result always
// passes ir.Validate; the generator never emits trapping operations
// (indices are clamped or masked in-bounds, integer denominators are forced
// odd and nonzero), so the interpreter ground truth always succeeds.
func FromBytes(data []byte, cfg GenConfig) *ir.Loop {
	cfg = cfg.withDefaults()
	h := fnv.New64a()
	h.Write(data)
	g := &gen{
		r:   newSrc(data),
		cfg: cfg,
		n:   cfg.Trips + 2,
	}
	b := ir.NewBuilder(fmt.Sprintf("fuzz-%x", h.Sum64()), "i", 1, int64(cfg.Trips)+1, 1)
	g.b = b

	n := g.n
	fa := make([]float64, n)
	fb := make([]float64, n)
	gi := make([]int64, n)
	idx := make([]int64, n)
	of := make([]float64, n)
	oi := make([]int64, n)
	for i := 0; i < n; i++ {
		fa[i] = float64(g.r.rnd(64)-32) * 0.25
		fb[i] = float64(g.r.rnd(48)+1) * 0.125
		gi[i] = int64(g.r.rnd(33) - 16)
		idx[i] = int64(g.r.rnd(n)) // aliasing gather/scatter targets
		of[i] = float64(g.r.rnd(16)) * 0.5
		oi[i] = int64(g.r.rnd(9) - 4)
	}
	b.ArrayF("f0", fa)
	b.ArrayF("f1", fb)
	b.ArrayI("g0", gi)
	b.ArrayI("idx", idx)
	b.ArrayF("of", of)
	b.ArrayI("oi", oi)
	b.ScalarF("facc", float64(g.r.rnd(9))*0.5)
	b.ScalarI("iacc", int64(g.r.rnd(7)))
	b.ScalarF("kf", float64(g.r.rnd(15)+1)*0.25)
	b.ScalarI("ki", int64(g.r.rnd(5)+1))
	g.ftmps = append(g.ftmps, "kf")
	g.itmps = append(g.itmps, "ki")
	b.LiveOut("facc", "iacc")

	// Optional loop-carried sweep: read the previous iteration's output.
	if g.r.rnd(3) == 0 {
		prev := g.name()
		b.Def(prev, ir.LDF("of", ir.SubE(b.Idx(), ir.I(1))))
		g.ftmps = append(g.ftmps, prev)
	}
	nStmts := 2 + g.r.rnd(cfg.MaxStmts)
	for s := 0; s < nStmts; s++ {
		g.statement(2)
	}
	// Fixed observable epilogue: both accumulators advance and the last
	// store depends on them, so every kernel has live output in both
	// register classes and through memory.
	b.Def("facc", ir.AddE(b.T("facc"), ir.MulE(g.fexpr(1), ir.F(0.125))))
	b.Def("iacc", ir.XorE(b.T("iacc"), g.iexpr(1)))
	b.StoreF("of", b.Idx(), ir.AddE(g.fexpr(1), b.T("facc")))
	b.StoreI("oi", g.index(), b.T("iacc"))
	if g.r.rnd(3) == 0 {
		last := g.name()
		b.Def(last, g.fexpr(1))
		b.LiveOut(last)
	}
	return b.MustBuild()
}

type gen struct {
	r     *src
	b     *ir.Builder
	cfg   GenConfig
	n     int // array length
	ftmps []string
	itmps []string
	fresh int
}

func (g *gen) name() string {
	g.fresh++
	return fmt.Sprintf("t%d", g.fresh)
}

// index produces an in-bounds I64 index expression; most alternatives alias
// unpredictably (gathered, masked, clamped), which is exactly what the
// dependence analysis and memory-token machinery must order correctly.
func (g *gen) index() ir.Expr {
	i := g.b.Idx()
	switch g.r.rnd(7) {
	case 0:
		return i
	case 1:
		return ir.AddE(i, ir.I(1))
	case 2:
		return ir.SubE(i, ir.I(1))
	case 3:
		return ir.LDI("idx", i) // values in [0, n)
	case 4:
		return ir.LDI("idx", ir.LDI("idx", i)) // double gather
	case 5:
		// Mask to [0, 15]; arrays always have >= 16 elements (Trips >= 14
		// not required: clamp below covers shorter arrays).
		if g.n >= 16 {
			return ir.AndE(g.iexpr(1), ir.I(15))
		}
		return g.clamp(g.iexpr(1))
	default:
		return g.clamp(g.iexpr(1))
	}
}

// clamp forces an arbitrary I64 expression into [0, n-1].
func (g *gen) clamp(e ir.Expr) ir.Expr {
	return ir.MinE(ir.MaxE(e, ir.I(0)), ir.I(int64(g.n-1)))
}

func (g *gen) fexpr(depth int) ir.Expr {
	if depth <= 0 {
		switch g.r.rnd(6) {
		case 0:
			return ir.F(float64(g.r.rnd(33)-16) * 0.25)
		case 1:
			if len(g.ftmps) > 0 {
				return g.b.T(g.ftmps[g.r.rnd(len(g.ftmps))])
			}
			return ir.F(1.5)
		case 2:
			return ir.LDF("f0", g.index())
		case 3:
			return ir.LDF("f1", g.index())
		case 4:
			return ir.LDF("of", g.index()) // load from the store target
		default:
			return ir.IToF(g.iexpr(0))
		}
	}
	switch g.r.rnd(11) {
	case 0:
		return ir.AddE(g.fexpr(depth-1), g.fexpr(depth-1))
	case 1:
		return ir.SubE(g.fexpr(depth-1), g.fexpr(depth-1))
	case 2:
		return ir.MulE(g.fexpr(depth-1), g.fexpr(depth-1))
	case 3:
		return ir.MinE(g.fexpr(depth-1), g.fexpr(depth-1))
	case 4:
		return ir.MaxE(g.fexpr(depth-1), g.fexpr(depth-1))
	case 5:
		return ir.SqrtE(ir.AbsE(g.fexpr(depth - 1)))
	case 6:
		// Denominator bounded away from zero.
		return ir.DivE(g.fexpr(depth-1), ir.AddE(ir.AbsE(g.fexpr(depth-1)), ir.F(0.5)))
	case 7:
		return ir.FloorE(g.fexpr(depth - 1))
	case 8:
		return ir.LogE(ir.AddE(ir.AbsE(g.fexpr(depth-1)), ir.F(0.25)))
	case 9:
		return ir.IToF(g.iexpr(depth - 1))
	default:
		return ir.NegE(g.fexpr(depth - 1))
	}
}

func (g *gen) iexpr(depth int) ir.Expr {
	if depth <= 0 {
		switch g.r.rnd(6) {
		case 0:
			return ir.I(int64(g.r.rnd(15) - 7))
		case 1:
			if len(g.itmps) > 0 {
				return g.b.T(g.itmps[g.r.rnd(len(g.itmps))])
			}
			return g.b.Idx()
		case 2:
			return g.b.Idx()
		case 3:
			return ir.LDI("g0", g.index())
		case 4:
			return ir.LDI("oi", g.index()) // load from the store target
		default:
			return ir.LDI("idx", g.b.Idx())
		}
	}
	switch g.r.rnd(12) {
	case 0:
		return ir.AddE(g.iexpr(depth-1), g.iexpr(depth-1))
	case 1:
		return ir.SubE(g.iexpr(depth-1), g.iexpr(depth-1))
	case 2:
		return ir.AndE(g.iexpr(depth-1), g.iexpr(depth-1))
	case 3:
		return ir.OrE(g.iexpr(depth-1), g.iexpr(depth-1))
	case 4:
		return ir.XorE(g.iexpr(depth-1), g.iexpr(depth-1))
	case 5:
		return ir.ShlE(ir.AndE(g.iexpr(depth-1), ir.I(255)), ir.I(int64(g.r.rnd(4))))
	case 6:
		return ir.ShrE(g.iexpr(depth-1), ir.I(int64(g.r.rnd(4))))
	case 7:
		// Denominator (x&7)|1 is odd and nonzero: no trap, still dynamic.
		return ir.DivE(g.iexpr(depth-1), ir.OrE(ir.AndE(g.iexpr(depth-1), ir.I(7)), ir.I(1)))
	case 8:
		return ir.RemE(g.iexpr(depth-1), ir.OrE(ir.AndE(g.iexpr(depth-1), ir.I(7)), ir.I(1)))
	case 9:
		return g.cmp(depth - 1)
	case 10:
		return ir.MulE(g.iexpr(depth-1), ir.I(int64(1+g.r.rnd(3))))
	default:
		return ir.MinE(g.iexpr(depth-1), g.iexpr(depth-1))
	}
}

// cmp builds an I64 0/1 comparison over either register class.
func (g *gen) cmp(depth int) ir.Expr {
	ops := []func(l, r ir.Expr) ir.Expr{ir.EqE, ir.NeE, ir.LtE, ir.LeE, ir.GtE, ir.GeE}
	op := ops[g.r.rnd(len(ops))]
	if g.r.rnd(2) == 0 {
		return op(g.fexpr(depth), g.fexpr(depth))
	}
	return op(g.iexpr(depth), g.iexpr(depth))
}

func (g *gen) cond() ir.Expr {
	switch g.r.rnd(4) {
	case 0:
		return g.cmp(1)
	case 1:
		return ir.NeE(ir.AndE(g.b.Idx(), ir.I(int64(1+g.r.rnd(3)))), ir.I(0))
	case 2:
		return ir.NotE(g.cmp(1))
	default:
		return ir.LeE(g.iexpr(1), ir.I(int64(g.r.rnd(9)-2)))
	}
}

// statement emits one top-level statement; ifDepth bounds conditional
// nesting.
func (g *gen) statement(ifDepth int) {
	b := g.b
	d := 1 + g.r.rnd(g.cfg.MaxDepth)
	switch g.r.rnd(10) {
	case 0: // new F64 temp
		n := g.name()
		b.Def(n, g.fexpr(d))
		g.ftmps = append(g.ftmps, n)
	case 1: // new I64 temp
		n := g.name()
		b.Def(n, g.iexpr(d))
		g.itmps = append(g.itmps, n)
	case 2: // direct F64 store
		b.StoreF("of", g.index(), g.fexpr(d))
	case 3: // direct I64 store
		b.StoreI("oi", g.index(), g.iexpr(d))
	case 4: // indirect read-modify-write through the gather array
		g.rmw()
	case 5: // F64 reduction
		g.faccUpdate()
	case 6: // I64 reduction
		g.iaccUpdate()
	case 7: // scatter into the I64 output
		b.StoreI("oi", ir.LDI("idx", b.Idx()), g.iexpr(1+g.r.rnd(2)))
	case 8: // loop-carried use of the output array
		n := g.name()
		b.Def(n, ir.MulE(ir.LDF("of", ir.SubE(b.Idx(), ir.I(1))), ir.F(0.5)))
		g.ftmps = append(g.ftmps, n)
	default:
		if ifDepth > 0 {
			g.ifStmt(ifDepth)
		} else {
			b.StoreF("of", g.index(), g.fexpr(1))
		}
	}
}

// rmw emits slot = idx[i]; cur = A[slot]; A[slot] = cur ⊕ e — an aliasing
// read-modify-write the compiler must keep ordered via memory tokens.
func (g *gen) rmw() {
	b := g.b
	slot := g.name()
	b.Def(slot, ir.LDI("idx", b.Idx()))
	g.itmps = append(g.itmps, slot)
	if g.r.rnd(2) == 0 {
		cur := g.name()
		b.Def(cur, ir.LDF("of", b.T(slot)))
		b.StoreF("of", b.T(slot), ir.AddE(b.T(cur), g.fexpr(1)))
		g.ftmps = append(g.ftmps, cur)
	} else {
		cur := g.name()
		b.Def(cur, ir.LDI("oi", b.T(slot)))
		b.StoreI("oi", b.T(slot), ir.AddE(b.T(cur), g.iexpr(1)))
		g.itmps = append(g.itmps, cur)
	}
}

func (g *gen) faccUpdate() {
	b := g.b
	switch g.r.rnd(3) {
	case 0:
		b.Def("facc", ir.AddE(b.T("facc"), g.fexpr(1+g.r.rnd(2))))
	case 1:
		b.Def("facc", ir.MaxE(b.T("facc"), g.fexpr(1)))
	default:
		b.Def("facc", ir.AddE(ir.MulE(b.T("facc"), ir.F(0.5)), g.fexpr(1)))
	}
}

func (g *gen) iaccUpdate() {
	b := g.b
	switch g.r.rnd(4) {
	case 0:
		b.Def("iacc", ir.AddE(b.T("iacc"), g.iexpr(1+g.r.rnd(2))))
	case 1:
		b.Def("iacc", ir.XorE(b.T("iacc"), g.iexpr(1)))
	case 2:
		b.Def("iacc", ir.MinE(b.T("iacc"), g.iexpr(1)))
	default:
		b.Def("iacc", ir.AndE(b.T("iacc"), ir.OrE(g.iexpr(1), ir.I(3))))
	}
}

// scoped runs f and then drops any temps it registered: definitions made
// inside a conditional branch are not visible on all paths, so statements
// generated after the branch must not reference them.
func (g *gen) scoped(f func()) {
	nf, ni := len(g.ftmps), len(g.itmps)
	f()
	g.ftmps = g.ftmps[:nf]
	g.itmps = g.itmps[:ni]
}

// ifStmt emits a conditional. Branch bodies contain stores, accumulator
// updates, local RMWs, and optionally a nested conditional; when both
// branches define the same fresh temp, it becomes visible afterwards (the
// merged-definition pattern the validator and outliner must handle).
func (g *gen) ifStmt(ifDepth int) {
	b := g.b
	c := g.name()
	b.Def(c, g.cond())
	g.itmps = append(g.itmps, c)
	style := g.r.rnd(4)
	nThen := 1 + g.r.rnd(3)
	nElse := 1 + g.r.rnd(2)
	switch style {
	case 0: // both branches define the same fresh temp
		v := g.name()
		kindF := g.r.rnd(2) == 0
		b.If(b.T(c), func() {
			g.scoped(func() {
				for k := 0; k < nThen-1; k++ {
					g.branchStmt(ifDepth - 1)
				}
				if kindF {
					b.Def(v, g.fexpr(1+g.r.rnd(2)))
				} else {
					b.Def(v, g.iexpr(1+g.r.rnd(2)))
				}
			})
		}, func() {
			g.scoped(func() {
				for k := 0; k < nElse-1; k++ {
					g.branchStmt(ifDepth - 1)
				}
				if kindF {
					b.Def(v, g.fexpr(1))
				} else {
					b.Def(v, g.iexpr(1))
				}
			})
		})
		if kindF {
			g.ftmps = append(g.ftmps, v)
		} else {
			g.itmps = append(g.itmps, v)
		}
	case 1: // stores on both paths (same cell or different cells)
		b.If(b.T(c), func() {
			g.scoped(func() {
				for k := 0; k < nThen; k++ {
					g.branchStmt(ifDepth - 1)
				}
			})
		}, func() {
			g.scoped(func() {
				for k := 0; k < nElse; k++ {
					g.branchStmt(ifDepth - 1)
				}
			})
		})
	case 2: // empty else
		b.If(b.T(c), func() {
			g.scoped(func() {
				for k := 0; k < nThen; k++ {
					g.branchStmt(ifDepth - 1)
				}
			})
		}, nil)
	default: // then-only accumulator guard (speculation candidate shape)
		b.If(b.T(c), func() {
			g.faccUpdate()
		}, func() {
			g.iaccUpdate()
		})
	}
}

// branchStmt emits a statement legal inside a conditional: side effects on
// arrays and accumulators only (fresh temps would not dominate later uses),
// except for branch-local RMW temps consumed immediately.
func (g *gen) branchStmt(ifDepth int) {
	b := g.b
	switch g.r.rnd(6) {
	case 0:
		b.StoreF("of", g.index(), g.fexpr(1+g.r.rnd(2)))
	case 1:
		b.StoreI("oi", g.index(), g.iexpr(1))
	case 2:
		g.faccUpdate()
	case 3:
		g.iaccUpdate()
	case 4:
		if ifDepth > 0 {
			g.ifStmt(ifDepth)
			return
		}
		g.rmw()
	default:
		g.rmw()
	}
}
