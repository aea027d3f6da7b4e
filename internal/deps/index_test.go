package deps_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fgp/internal/deps"
	"fgp/internal/fiber"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/normalize"
	"fgp/internal/speculate"
	"fgp/internal/tac"
)

// variant is one lowered corpus loop.
type variant struct {
	name string
	fn   *tac.Fn
}

// corpus lowers the 18 tier-1 kernels, the 6 tier-2 kernels and 200
// generated loops, each with tree splitting off and at 4 and speculation
// off and on, as the compiler's front half does.
func corpus(t *testing.T) []variant {
	t.Helper()
	var loops []*ir.Loop
	for _, k := range kernels.All() {
		loops = append(loops, k.Build())
	}
	t2, err := tier2.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range t2 {
		l, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	for seed := range uint64(200) {
		loops = append(loops, fuzz.Generate(seed, fuzz.GenConfig{MaxStmts: 24, MaxDepth: 4}))
	}
	var out []variant
	for _, l := range loops {
		for _, norm := range []int{0, 4} {
			for _, spec := range []bool{false, true} {
				v := l
				if norm > 0 {
					v, _ = normalize.Apply(v, norm)
				}
				if spec {
					v, _ = speculate.Apply(v)
				}
				fn, err := tac.Lower(v)
				if err != nil {
					t.Fatalf("%s: %v", l.Name, err)
				}
				out = append(out, variant{fmt.Sprintf("%s/norm%d/spec=%v", l.Name, norm, spec), fn})
			}
		}
	}
	return out
}

// TestReaderIndexMatchesRescan: every temp's reader index lists exactly
// the instructions a scan of the function finds reading it, in program
// order, each once.
func TestReaderIndexMatchesRescan(t *testing.T) {
	for _, v := range corpus(t) {
		want := make([][]int, len(v.fn.Temps))
		var buf []tac.TempID
		for _, in := range v.fn.Instrs {
			buf = in.Uses(buf[:0])
			for i, u := range buf {
				if !slices.Contains(buf[:i], u) {
					want[u] = append(want[u], in.ID)
				}
			}
		}
		for tid := range v.fn.Temps {
			if got := v.fn.Temps[tid].Uses; !slices.Equal(got, want[tid]) {
				t.Errorf("%s: temp %s: reader index %v, a rescan finds %v", v.name, v.fn.Temps[tid].Name, got, want[tid])
			}
		}
	}
}

// TestRegDepsMatchesRescan: dependence analysis over the reader index
// finds the same edges and co-locations, in the same order, as the
// register pass that rescanned the function for every temp.
func TestRegDepsMatchesRescan(t *testing.T) {
	for _, v := range corpus(t) {
		set, err := fiber.Partition(v.fn)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got, err := deps.Analyze(v.fn, set)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		want, err := deps.AnalyzeRescan(v.fn, set)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Errorf("%s: edges differ from the rescan's:\n got  %v\n want %v", v.name, got.Edges, want.Edges)
		}
		if !reflect.DeepEqual(got.Colocate, want.Colocate) {
			t.Errorf("%s: co-locations differ from the rescan's:\n got  %v\n want %v", v.name, got.Colocate, want.Colocate)
		}
	}
}

// TestFiberEdgesAggregateOnce: FiberEdges aggregates once, so two calls
// return one slice, and that aggregation equals a fresh one over the
// corpus.
func TestFiberEdgesAggregateOnce(t *testing.T) {
	for _, v := range corpus(t) {
		set, err := fiber.Partition(v.fn)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		info, err := deps.Analyze(v.fn, set)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		first, second := info.FiberEdges(), info.FiberEdges()
		if len(first) != len(second) || len(first) > 0 && &first[0] != &second[0] {
			t.Errorf("%s: two FiberEdges calls aggregated twice", v.name)
		}
		if fresh := info.FreshFiberEdges(); !reflect.DeepEqual(first, fresh) {
			t.Errorf("%s: memoized fiber edges differ from a fresh aggregation:\n got  %v\n want %v", v.name, first, fresh)
		}
	}
}
