// Command fgpfuzz is the differential fuzzing driver: it generates random
// IR kernels and cross-checks the full compile-and-simulate pipeline
// against the reference interpreter over the {cores} × {speculation} ×
// {normalization} × {threaded, reference engine} matrix (see
// internal/fuzz). The threaded leg runs sink-free so its fused-block
// runtime is exercised; the reference leg also records the event stream
// and checks its stall windows against the counters.
//
// Usage:
//
//	fgpfuzz -seeds 1000                 # batch of seeds 0..999
//	fgpfuzz -duration 5m                # soak until the clock runs out
//	fgpfuzz -minimize crashers/x.bin    # reproduce + shrink one input
//	fgpfuzz -minimize 0x2a              # same, from a numeric seed
//	fgpfuzz -selftest                   # injected-miscompile mutation test
//
// Failures are minimized automatically and written as raw byte inputs
// (plus a readable .txt rendering) under -out; commit them to
// internal/fuzz/testdata/crashers/ together with the fix so the corpus
// test replays them forever.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/experiments"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 200, "number of seeds to check in batch mode")
		base     = flag.Uint64("base", 0, "first seed of the batch")
		duration = flag.Duration("duration", 0, "soak: keep running batches until this much time has passed (overrides -seeds)")
		cores    = flag.Int("cores", 4, "maximum core count of the configuration matrix")
		workers  = flag.Int("workers", 0, "parallel oracle workers (0 = all CPUs)")
		trips    = flag.Int("trips", 0, "loop trip count (0 = generator default)")
		stmts    = flag.Int("stmts", 0, "max random statements per kernel (0 = generator default)")
		minimize = flag.String("minimize", "", "reproduce and shrink one input: a crasher file path or a numeric seed (0x.. or decimal)")
		maxCheck = flag.Int("maxchecks", 2000, "oracle-invocation budget for the shrinker")
		out      = flag.String("out", "crashers", "directory for minimized crasher files")
		selftest = flag.Bool("selftest", false, "inject a miscompile and verify the oracle catches it and the shrinker minimizes it")
		searchB  = flag.Int("search-budget", 0, "add the search-partitioner leg to the matrix with this candidate budget (0 = off)")
		verbose  = flag.Bool("v", false, "print every kernel name as it is checked")
	)
	flag.Parse()

	gc := fuzz.GenConfig{Trips: *trips, MaxStmts: *stmts}
	oc := fuzz.OracleConfig{MaxCores: *cores, SearchBudget: *searchB}

	switch {
	case *selftest:
		os.Exit(runSelftest(gc, oc, *maxCheck))
	case *minimize != "":
		os.Exit(runMinimize(*minimize, gc, oc, *maxCheck, *out))
	default:
		os.Exit(runBatch(gc, oc, *seeds, *base, *duration, *workers, *maxCheck, *out, *verbose))
	}
}

// runBatch sweeps seeds through the oracle on a worker pool; every failure
// is minimized and written out. Exit code 0 iff no mismatches.
func runBatch(gc fuzz.GenConfig, oc fuzz.OracleConfig, seeds int, base uint64, soak time.Duration, workers, maxCheck int, out string, verbose bool) int {
	start := time.Now()
	var checked, failures atomic.Int64
	var mu sync.Mutex // serializes failure reporting/minimization
	batch := func(lo uint64, n int) {
		_ = experiments.ParallelEach(n, workers, func(i int) error {
			seed := lo + uint64(i)
			l := fuzz.Generate(seed, gc)
			if verbose {
				fmt.Printf("seed %#x: %s\n", seed, l.Name)
			}
			err := fuzz.Check(l, oc)
			checked.Add(1)
			if err == nil {
				return nil
			}
			failures.Add(1)
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "MISMATCH seed %#x: %v\n", seed, err)
			reportCrasher(fuzz.SeedBytes(seed), l, gc, oc, maxCheck, out)
			return err
		})
	}
	if soak > 0 {
		const chunk = 64
		lo := base
		for time.Since(start) < soak {
			batch(lo, chunk)
			lo += chunk
		}
	} else {
		batch(base, seeds)
	}
	fmt.Printf("fgpfuzz: %d kernels checked in %v (matrix: 1..%d cores × spec × norm × engine), %d mismatches\n",
		checked.Load(), time.Since(start).Round(time.Millisecond), oc.MaxCores, failures.Load())
	if failures.Load() > 0 {
		return 1
	}
	return 0
}

// reportCrasher minimizes a failing input and writes <out>/<name>.bin (the
// raw bytes) and <out>/<name>.txt (the minimized kernel rendering).
func reportCrasher(data []byte, l *ir.Loop, gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int, out string) {
	fails := func(c *ir.Loop) bool { return fuzz.Check(c, oc) != nil }
	min := fuzz.Shrink(l, fails, maxCheck)
	err := fuzz.Check(min, oc)
	if err == nil { // shrinker over-reduced (budget edge); fall back
		min, err = l, fuzz.Check(l, oc)
	}
	fmt.Fprintf(os.Stderr, "minimized to %d statements, %d trips:\n%s%v\n",
		ir.CountStmts(min.Body), min.Trips(), ir.Print(min), err)
	if out == "" {
		return
	}
	if mkerr := os.MkdirAll(out, 0o755); mkerr != nil {
		fmt.Fprintf(os.Stderr, "fgpfuzz: cannot create %s: %v\n", out, mkerr)
		return
	}
	name := l.Name
	if werr := os.WriteFile(filepath.Join(out, name+".bin"), data, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "fgpfuzz: %v\n", werr)
	}
	txt := fmt.Sprintf("# %v\n# minimized:\n%s", err, ir.Print(min))
	if werr := os.WriteFile(filepath.Join(out, name+".txt"), []byte(txt), 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "fgpfuzz: %v\n", werr)
	}
	fmt.Fprintf(os.Stderr, "fgpfuzz: wrote %s/%s.{bin,txt} — commit under internal/fuzz/testdata/crashers/ with the fix\n", out, name)
}

// runMinimize reproduces one input (file or numeric seed) and shrinks it.
func runMinimize(arg string, gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int, out string) int {
	var data []byte
	if b, err := os.ReadFile(arg); err == nil {
		data = b
	} else if seed, perr := strconv.ParseUint(strings.TrimPrefix(arg, "0x"), map[bool]int{true: 16, false: 10}[strings.HasPrefix(arg, "0x")], 64); perr == nil {
		data = fuzz.SeedBytes(seed)
	} else {
		fmt.Fprintf(os.Stderr, "fgpfuzz: -minimize %q: not a readable file (%v) or a seed (%v)\n", arg, err, perr)
		return 2
	}
	l := fuzz.FromBytes(data, gc)
	err := fuzz.Check(l, oc)
	if err == nil {
		fmt.Printf("fgpfuzz: input passes the oracle (%d statements); nothing to minimize\n", ir.CountStmts(l.Body))
		return 0
	}
	fmt.Fprintf(os.Stderr, "reproduced: %v\n", err)
	reportCrasher(data, l, gc, oc, maxCheck, out)
	return 1
}

// runSelftest proves the oracle detects a real divergence: it injects a
// miscompile (first add/sub flipped) into the compiled path only, requires
// the oracle to flag it, and requires the shrinker to keep it failing at a
// reduced size. Exit 0 = harness healthy.
func runSelftest(gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int) int {
	mutOC := oc
	mutOC.MutateCompiled = func(x *ir.Loop) *ir.Loop {
		m, _ := fuzz.InjectMiscompile(x)
		return m
	}
	mutFails := func(l *ir.Loop) bool { return fuzz.Check(l, mutOC) != nil }
	for seed := uint64(0); seed < 20; seed++ {
		l := fuzz.Generate(seed, gc)
		if _, ok := fuzz.InjectMiscompile(l); !ok || !mutFails(l) {
			continue
		}
		min := fuzz.Shrink(l, mutFails, maxCheck)
		if !mutFails(min) {
			fmt.Fprintln(os.Stderr, "fgpfuzz selftest: FAIL — shrinker lost the injected miscompile")
			return 1
		}
		fmt.Printf("fgpfuzz selftest: ok — injected miscompile caught at seed %d, minimized %d -> %d statements\n",
			seed, ir.CountStmts(l.Body), ir.CountStmts(min.Body))
		return 0
	}
	fmt.Fprintln(os.Stderr, "fgpfuzz selftest: FAIL — no injected miscompile detected in 20 seeds")
	return 1
}
