package deps

import (
	"fgp/internal/fiber"
	"fgp/internal/tac"
)

// AnalyzeRescan is Analyze with the register pass as it was before the
// reader index: it finds each temp's readers by rescanning every
// instruction. The index tests hold Analyze to it.
func AnalyzeRescan(fn *tac.Fn, set *fiber.Set) (*Info, error) {
	info := &Info{Fn: fn, Set: set, Affine: affineAnalysis(fn)}
	info.regDepsRescan()
	if err := info.memDeps(); err != nil {
		return nil, err
	}
	info.ctlDeps()
	info.siblingBranchDeps()
	return info, nil
}

func (info *Info) regDepsRescan() {
	fn := info.Fn
	for tid := range fn.Temps {
		t := &fn.Temps[tid]
		if t.IsIndex {
			continue
		}
		temp := tac.TempID(tid)
		defs := t.Defs
		if len(defs) == 0 {
			continue
		}
		if len(defs) > 1 || t.IsParam {
			for i := 1; i < len(defs); i++ {
				info.colocate(fn.Instrs[defs[0]].Fiber, fn.Instrs[defs[i]].Fiber)
			}
		}
		var ubuf []tac.TempID
		for _, in := range fn.Instrs {
			ubuf = in.Uses(ubuf[:0])
			reads := false
			for _, u := range ubuf {
				if u == temp {
					reads = true
				}
			}
			if !reads {
				continue
			}
			for _, d := range defs {
				if d == in.ID && len(defs) == 1 {
					continue
				}
				carried := d >= in.ID
				info.Edges = append(info.Edges, Edge{From: d, To: in.ID, Kind: Reg, Carried: carried, Temp: temp})
				if carried {
					info.colocate(fn.Instrs[d].Fiber, in.Fiber)
				}
			}
		}
	}
}

// FreshFiberEdges aggregates info's fiber edges anew, bypassing the memo
// FiberEdges returns.
func (info *Info) FreshFiberEdges() []FiberEdge { return info.aggregateFiberEdges() }
