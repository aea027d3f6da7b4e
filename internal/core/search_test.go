package core

import (
	"math"
	"strings"
	"testing"

	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/mem"
	"fgp/internal/outline"
	"fgp/internal/sim"
)

// TestSameOutcomeRejectsEveryDifference: the seed-versus-winner
// cross-check of a searched compile rejects a winner run that differs from
// the seed's in one F64 element (a NaN with other payload bits included),
// one I64 element, one live-out value or one missing live-out, and its
// error names the array or the live-out.
func TestSameOutcomeRejectsEveryDifference(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	b := ir.NewBuilder("crosscheck", "i", 0, 2, 1)
	b.ArrayF("x", []float64{1, nan1, 3})
	b.ArrayI("n", []int64{4, 5, 6})
	s := b.ScalarF("s", 0.5)
	c := b.ScalarI("c", 7)
	b.LiveOut("s", "c")
	b.Def("s", ir.AddE(s, ir.LDF("x", b.Idx())))
	b.Def("c", ir.AddE(c, ir.LDI("n", b.Idx())))
	l := b.MustBuild()

	run := func(mutate func(image *mem.Memory, live map[string]interp.Value)) *scoringRun {
		image := outline.BuildMemory(l)
		live := map[string]interp.Value{"s": interp.VF(nan1), "c": interp.VI(7)}
		if mutate != nil {
			mutate(image, live)
		}
		return &scoringRun{image: image, res: &sim.Result{LiveOut: live}}
	}
	store := func(image *mem.Memory, name string, idx int64, f float64, i int64) {
		id, _ := image.ID(name)
		var err error
		if image.Kind(id) == ir.F64 {
			err = image.StoreF(id, idx, f)
		} else {
			err = image.StoreI(id, idx, i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	seed := run(nil)
	if err := sameOutcome(l, seed, run(nil)); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		mutate     func(*mem.Memory, map[string]interp.Value)
	}{
		{"F64 element", "x[2]", func(m *mem.Memory, _ map[string]interp.Value) { store(m, "x", 2, 3.5, 0) }},
		{"NaN payload", "x[1]", func(m *mem.Memory, _ map[string]interp.Value) { store(m, "x", 1, nan2, 0) }},
		{"I64 element", "n[0]", func(m *mem.Memory, _ map[string]interp.Value) { store(m, "n", 0, 0, -4) }},
		{"F64 live-out NaN payload", `live-out "s"`, func(_ *mem.Memory, live map[string]interp.Value) { live["s"] = interp.VF(nan2) }},
		{"I64 live-out value", `live-out "c"`, func(_ *mem.Memory, live map[string]interp.Value) { live["c"] = interp.VI(8) }},
		{"missing live-out", `live-out "c"`, func(_ *mem.Memory, live map[string]interp.Value) { delete(live, "c") }},
	} {
		err := sameOutcome(l, seed, run(c.mutate))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}

// BenchmarkCompileSearched compiles the package's generated loops in the
// shape of the benchmark's compile-source workload: each operation
// compiles one loop at 2 cores, at 4 cores, and at 4 cores searched with
// budget 48 and seed 1, scoring candidates at the default SearchWorkers
// (one per CPU). Read it with -benchmem -cpu 1,2: at -cpu 1 the search is
// serial.
func BenchmarkCompileSearched(b *testing.B) {
	loops := make([]*ir.Loop, 16)
	for i := range loops {
		loops[i] = generate(uint64(i)*0x9e3779b97f4a7c15 + 31337)
	}
	opts := []Options{DefaultOptions(2), DefaultOptions(4), searchedOptions(4, 0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := loops[i%len(loops)]
		for _, opt := range opts {
			a, err := Compile(l, opt)
			if err != nil {
				b.Fatalf("%s/%d cores: %v", l.Name, opt.Cores, err)
			}
			benchArtifact = a
		}
	}
}

// benchArtifact keeps the benchmark's compiles from being optimized away.
var benchArtifact *Artifact
