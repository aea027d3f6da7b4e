// Command fgpfuzz is the differential fuzzing driver: it generates random
// IR kernels and cross-checks the full compile-and-simulate pipeline
// against the reference interpreter over the {cores} × {speculation} ×
// {normalization} × {threaded, reference engine} matrix (see
// internal/fuzz). The threaded leg runs unrecorded so its fused-block
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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgpfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds    = fs.Int("seeds", 200, "number of seeds to check in batch mode")
		base     = fs.Uint64("base", 0, "first seed of the batch")
		duration = fs.Duration("duration", 0, "soak: keep running batches until this much time has passed (overrides -seeds)")
		cores    = fs.Int("cores", 4, "maximum core count of the configuration matrix")
		workers  = fs.Int("workers", 0, "parallel oracle workers (0 = all CPUs)")
		trips    = fs.Int("trips", 0, "loop trip count (0 = generator default)")
		stmts    = fs.Int("stmts", 0, "max random statements per kernel (0 = generator default)")
		minimize = fs.String("minimize", "", "reproduce and shrink one input: a crasher file path or a numeric seed (0x.. or decimal)")
		maxCheck = fs.Int("maxchecks", 2000, "oracle-invocation budget for the shrinker")
		out      = fs.String("out", "crashers", "directory for minimized crasher files")
		selftest = fs.Bool("selftest", false, "inject a miscompile and verify the oracle catches it and the shrinker minimizes it")
		searchB  = fs.Int("search-budget", 0, "add the search-partitioner leg to the matrix with this candidate budget (0 = off)")
		verbose  = fs.Bool("v", false, "print every kernel name as it is checked")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgpfuzz: "+format+"\n", args...)
		return 2
	}
	batch := !*selftest && *minimize == ""
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *cores < 1:
		return usage("-cores must be >= 1 (got %d)", *cores)
	case batch && *duration == 0 && *seeds < 1:
		return usage("-seeds must be >= 1 unless -duration is set (got %d)", *seeds)
	case *duration < 0:
		return usage("-duration must be >= 0 (got %v)", *duration)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"search-budget", *searchB}, {"trips", *trips}, {"stmts", *stmts}, {"maxchecks", *maxCheck}, {"workers", *workers}} {
		if f.v < 0 {
			return usage("-%s must be >= 0 (got %d)", f.name, f.v)
		}
	}

	gc := fuzz.GenConfig{Trips: *trips, MaxStmts: *stmts}
	oc := fuzz.OracleConfig{MaxCores: *cores, SearchBudget: *searchB}

	switch {
	case *selftest:
		return runSelftest(stdout, stderr, gc, oc, *maxCheck)
	case *minimize != "":
		return runMinimize(stdout, stderr, *minimize, gc, oc, *maxCheck, *out)
	default:
		return runBatch(stdout, stderr, gc, oc, *seeds, *base, *duration, *workers, *maxCheck, *out, *verbose)
	}
}

// runBatch sweeps seeds through the oracle on a worker pool; every failure
// is minimized and written out. Exit code 0 iff no mismatches.
func runBatch(stdout, stderr io.Writer, gc fuzz.GenConfig, oc fuzz.OracleConfig, seeds int, base uint64, soak time.Duration, workers, maxCheck int, out string, verbose bool) int {
	start := time.Now()
	var checked, failures atomic.Int64
	var mu sync.Mutex // serializes failure reporting/minimization
	batch := func(lo uint64, n int) {
		_ = experiments.ParallelEach(n, workers, func(i int) error {
			seed := lo + uint64(i)
			l := fuzz.Generate(seed, gc)
			if verbose {
				fmt.Fprintf(stdout, "seed %#x: %s\n", seed, l.Name)
			}
			err := fuzz.Check(l, oc)
			checked.Add(1)
			if err == nil {
				return nil
			}
			failures.Add(1)
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "MISMATCH seed %#x: %v\n", seed, err)
			reportCrasher(stderr, fuzz.SeedBytes(seed), l, gc, oc, maxCheck, out)
			return err
		})
	}
	if soak > 0 {
		// A soak checks at least one chunk, however short its duration.
		const chunk = 64
		for lo := base; ; lo += chunk {
			batch(lo, chunk)
			if time.Since(start) >= soak {
				break
			}
		}
	} else {
		batch(base, seeds)
	}
	fmt.Fprintf(stdout, "fgpfuzz: %d kernels checked in %v (matrix: 1..%d cores × spec × norm × engine), %d mismatches\n",
		checked.Load(), time.Since(start).Round(time.Millisecond), oc.MaxCores, failures.Load())
	if failures.Load() > 0 {
		return 1
	}
	return 0
}

// reportCrasher minimizes a failing input and writes <out>/<name>.bin (the
// raw bytes) and <out>/<name>.txt (the minimized kernel rendering).
func reportCrasher(stderr io.Writer, data []byte, l *ir.Loop, gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int, out string) {
	fails := func(c *ir.Loop) bool { return fuzz.Check(c, oc) != nil }
	min := fuzz.Shrink(l, fails, maxCheck)
	err := fuzz.Check(min, oc)
	if err == nil { // shrinker over-reduced (budget edge); fall back
		min, err = l, fuzz.Check(l, oc)
	}
	fmt.Fprintf(stderr, "minimized to %d statements, %d trips:\n%s%v\n",
		ir.CountStmts(min.Body), min.Trips(), ir.Print(min), err)
	if out == "" {
		return
	}
	if mkerr := os.MkdirAll(out, 0o755); mkerr != nil {
		fmt.Fprintf(stderr, "fgpfuzz: cannot create %s: %v\n", out, mkerr)
		return
	}
	name := l.Name
	if werr := os.WriteFile(filepath.Join(out, name+".bin"), data, 0o644); werr != nil {
		fmt.Fprintf(stderr, "fgpfuzz: %v\n", werr)
	}
	txt := fmt.Sprintf("# %v\n# minimized:\n%s", err, ir.Print(min))
	if werr := os.WriteFile(filepath.Join(out, name+".txt"), []byte(txt), 0o644); werr != nil {
		fmt.Fprintf(stderr, "fgpfuzz: %v\n", werr)
	}
	fmt.Fprintf(stderr, "fgpfuzz: wrote %s/%s.{bin,txt} — commit under internal/fuzz/testdata/crashers/ with the fix\n", out, name)
}

// runMinimize reproduces one input (file or numeric seed) and shrinks it.
func runMinimize(stdout, stderr io.Writer, arg string, gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int, out string) int {
	var data []byte
	if b, err := os.ReadFile(arg); err == nil {
		data = b
	} else if seed, perr := strconv.ParseUint(strings.TrimPrefix(arg, "0x"), map[bool]int{true: 16, false: 10}[strings.HasPrefix(arg, "0x")], 64); perr == nil {
		data = fuzz.SeedBytes(seed)
	} else {
		fmt.Fprintf(stderr, "fgpfuzz: -minimize %q: not a readable file (%v) or a seed (%v)\n", arg, err, perr)
		return 2
	}
	l := fuzz.FromBytes(data, gc)
	err := fuzz.Check(l, oc)
	if err == nil {
		fmt.Fprintf(stdout, "fgpfuzz: input passes the oracle (%d statements); nothing to minimize\n", ir.CountStmts(l.Body))
		return 0
	}
	fmt.Fprintf(stderr, "reproduced: %v\n", err)
	reportCrasher(stderr, data, l, gc, oc, maxCheck, out)
	return 1
}

// runSelftest proves the oracle detects a real divergence: it injects a
// miscompile (first add/sub flipped) into the compiled path only, requires
// the oracle to flag it, and requires the shrinker to keep it failing at a
// reduced size. Exit 0 = harness healthy.
func runSelftest(stdout, stderr io.Writer, gc fuzz.GenConfig, oc fuzz.OracleConfig, maxCheck int) int {
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
			fmt.Fprintln(stderr, "fgpfuzz selftest: FAIL — shrinker lost the injected miscompile")
			return 1
		}
		fmt.Fprintf(stdout, "fgpfuzz selftest: ok — injected miscompile caught at seed %d, minimized %d -> %d statements\n",
			seed, ir.CountStmts(l.Body), ir.CountStmts(min.Body))
		return 0
	}
	fmt.Fprintln(stderr, "fgpfuzz selftest: FAIL — no injected miscompile detected in 20 seeds")
	return 1
}
