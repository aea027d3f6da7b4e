package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// TestRunnerConcurrentArtifact hammers the singleflight artifact cache from
// many goroutines requesting overlapping (kernel, variant) pairs. Run under
// `go test -race`, this is the concurrency-safety check for the parallel
// sweep machinery; functionally it asserts every requester of a given key
// observes the same artifact pointer (compiled exactly once).
func TestRunnerConcurrentArtifact(t *testing.T) {
	r := NewRunner()
	ks := kernels.All()[:6]
	variants := []Variant{{Cores: 2}, {Cores: 4}, {Cores: 4, Speculate: true}}

	type key struct {
		kernel  string
		variant int
	}
	var mu sync.Mutex
	seen := map[key]any{}

	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for ki := range ks {
			for vi := range variants {
				wg.Add(1)
				go func(ki, vi int) {
					defer wg.Done()
					a, err := r.Artifact(ks[ki], variants[vi])
					if err != nil {
						t.Errorf("%s: %v", ks[ki].Name, err)
						return
					}
					mu.Lock()
					defer mu.Unlock()
					k := key{ks[ki].Name, vi}
					if prev, ok := seen[k]; ok && prev != any(a) {
						t.Errorf("%s variant %d: got two distinct artifacts", ks[ki].Name, vi)
					}
					seen[k] = a
				}(ki, vi)
			}
		}
	}
	wg.Wait()
}

// TestRunnerParallelMatchesSerial runs the Fig 12 sweep once on a single
// worker and once on a saturated pool and requires identical rows: worker
// count must never leak into simulated results.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	serial := NewRunner()
	serial.SetWorkers(1)
	want, err := Fig12(serial)
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewRunner()
	parallel.SetWorkers(2 * runtime.GOMAXPROCS(0))
	got, err := Fig12(parallel)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRunnerReferenceMatchesBurst runs the Fig 12 sweep on both simulator
// engines through the Runner API — the default (threaded) runner against a
// reference runner — and requires identical rows. The name predates the
// threaded default; the burst engine it once named is gone.
func TestRunnerReferenceMatchesBurst(t *testing.T) {
	got, err := Fig12(NewRunner())
	if err != nil {
		t.Fatal(err)
	}

	ref := NewRunner()
	ref.SetEngine(sim.EngineReference)
	want, err := Fig12(ref)
	if err != nil {
		t.Fatal(err)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: default %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestParallelEach pins the helper's contract: full coverage of [0, n),
// deterministic lowest-index error selection, and the serial degenerate
// case.
func TestParallelEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 100
		hits := make([]int32, n)
		var mu sync.Mutex
		err := ParallelEach(n, workers, func(i int) error {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}

	wantErr := errFor(7)
	for _, workers := range []int{1, 4} {
		err := ParallelEach(20, workers, func(i int) error {
			if i == 7 || i == 13 {
				return errFor(i)
			}
			return nil
		})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: got error %v, want %v", workers, err, wantErr)
		}
	}

	if err := ParallelEach(0, 4, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

type indexError int

func (e indexError) Error() string { return fmt.Sprintf("item %d failed", int(e)) }

func errFor(i int) error { return indexError(i) }

// TestRunnerNamesDoNotAlias: the runner addresses kernels by content, so
// two wrapped kernels that share a name but not a loop get their own
// artifacts, baselines and cycles from one runner.
func TestRunnerNamesDoNotAlias(t *testing.T) {
	r := NewRunner()
	a := kernels.Wrap("alias", kernelByName(t, "irs-1").Build)
	b := kernels.Wrap("alias", kernelByName(t, "sphot-1").Build)
	_, resA, artA, err := r.Speedup(a, Variant{Cores: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resB, artB, err := r.Speedup(b, Variant{Cores: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if artA == artB {
		t.Fatal("two loops named alike share one artifact")
	}
	if resA.Cycles == resB.Cycles {
		t.Errorf("two different loops named alike ran %d cycles each", resA.Cycles)
	}
	seqA, _ := r.SeqCycles(a)
	seqB, _ := r.SeqCycles(b)
	if seqA == seqB {
		t.Errorf("two different loops named alike share a %d-cycle baseline", seqA)
	}
}
