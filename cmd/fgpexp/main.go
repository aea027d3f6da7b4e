// Command fgpexp regenerates the paper's evaluation: every table and
// figure of Section V, plus the ablations discussed in Section III-B and
// two extension sweeps.
//
// Usage:
//
//	fgpexp                     # run everything
//	fgpexp -exp fig12          # one experiment
//	fgpexp -exp fig13 -lat 5,20,50,100
//
// Experiments: table1, fig12, table2, table3, fig13, fig14, throughput,
// multipair, schedule, normalize, simd, queuelen, search, machspace,
// attribution, all. An unknown name exits 2 and lists the accepted ones.
// The search experiment compiles every tier-1 and tier-2 kernel with the
// simulator-guided partition search (-search-budget candidates per kernel,
// seeded by -search-seed) and reports heuristic vs searched cycles.
//
// The machspace experiment sweeps each -ms-kernels kernel over the default
// machine-space grid (queue capacity × transfer latency × enqueue cost at
// 4 cores) and prints the latency-degradation row, the queue-saturation
// row, the Pareto frontier of speedup vs hardware cost, and the
// -ms-targets inverse queries ("cheapest machine reaching 2x").
//
// The attribution experiment records the full observability event stream
// of one kernel (-trace-kernel) across core counts (-trace-cores) and
// prints the per-core stall-attribution report: cycles decomposed by cause
// (queue waits, L1 misses, memory-port serialization), queue occupancy
// high-water marks, and the load-imbalance index. -trace-out additionally
// writes the highest-core-count recording to a file in -trace-format
// (text, perfetto, or report).
//
// Host-performance knobs: -workers bounds the sweep's worker pool, -engine
// selects the simulator engine (threaded, the default, or reference, the
// per-instruction oracle; bit-identical results, different host time), and
// -cpuprofile/-memprofile write pprof profiles of the run for go tool
// pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"fgp/internal/experiments"
	"fgp/internal/machspace"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experiment is one named report: run returns its text rendering and the
// rows -json encodes under its name.
type experiment struct {
	name string
	run  func() (string, any, error)
}

// run is main with its environment made explicit, so tests can pin whole
// invocations: 0 on success, 1 when an experiment fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("fgpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run")
	lats := fs.String("lat", "5,20,50,100", "comma-separated transfer latencies for fig13")
	qlens := fs.String("qlen", "2,4,8,20,64", "comma-separated queue lengths for queuelen")
	traceKernel := fs.String("trace-kernel", "sphot-1", "kernel for the attribution experiment")
	traceCores := fs.String("trace-cores", "1,2,4", "comma-separated core counts for the attribution experiment")
	traceOut := fs.String("trace-out", "", "write the attribution recording (highest core count) to this file")
	traceFormat := fs.String("trace-format", "perfetto", "format for -trace-out: "+obs.TraceFormats)
	msKernels := fs.String("ms-kernels", "umt2k-4,umt2k-2,lammps-2", "comma-separated kernels for the machspace sweep")
	msTargets := fs.String("ms-targets", "1.5,2,3", "comma-separated inverse-query speedup targets for machspace")
	searchBudget := fs.Int("search-budget", 48, "per-kernel candidate budget for the search experiment")
	searchSeed := fs.Int64("search-seed", 1, "random seed for the search experiment")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	workers := fs.Int("workers", 0, "worker pool size for experiment sweeps (0 = one per CPU, 1 = serial)")
	engine := fs.String("engine", "", fmt.Sprintf("simulation engine for every run: one of %v (default %s)", sim.Engines(), sim.Engines()[0]))
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")

	r := experiments.NewRunner()
	var latencies []int64
	var lengths []int
	exps := []experiment{
		{"table1", func() (string, any, error) {
			rows := experiments.Table1()
			return experiments.FormatTable1(rows), rows, nil
		}},
		{"fig12", func() (string, any, error) {
			rows, err := experiments.Fig12(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatFig12(rows), rows, nil
		}},
		{"table2", func() (string, any, error) {
			rows, err := experiments.Table2(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatTable2(rows), rows, nil
		}},
		{"table3", func() (string, any, error) {
			rows, err := experiments.Table3(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatTable3(rows), rows, nil
		}},
		{"fig13", func() (string, any, error) {
			rows, err := experiments.Fig13(r, latencies)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatFig13(rows, latencies), rows, nil
		}},
		{"fig14", func() (string, any, error) {
			rows, err := experiments.Fig14(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatFig14(rows), rows, nil
		}},
		{"throughput", func() (string, any, error) {
			rows, err := experiments.Throughput(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatThroughput(rows), rows, nil
		}},
		{"multipair", func() (string, any, error) {
			rows, err := experiments.MultiPair(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatMultiPair(rows), rows, nil
		}},
		{"schedule", func() (string, any, error) {
			rows, err := experiments.Schedule(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatSchedule(rows), rows, nil
		}},
		{"normalize", func() (string, any, error) {
			rows, err := experiments.Normalize(r)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatNormalize(rows), rows, nil
		}},
		{"simd", func() (string, any, error) {
			rows, err := experiments.SIMD()
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatSIMD(rows), rows, nil
		}},
		{"queuelen", func() (string, any, error) {
			rows, err := experiments.QueueLen(r, lengths)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatQueueLen(rows, lengths), rows, nil
		}},
		{"search", func() (string, any, error) {
			rows, err := experiments.Search(r, experiments.SearchConfig{
				Budget: *searchBudget,
				Seed:   *searchSeed,
				Tier2:  true,
			})
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatSearch(rows), rows, nil
		}},
		{"machspace", func() (string, any, error) {
			names := strings.Split(*msKernels, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
			targets, err := parseFloats(*msTargets)
			if err != nil {
				return "", nil, err
			}
			reps, err := machspace.Report(context.Background(), r, names, machspace.DefaultGrid(), targets, machspace.Options{
				Workers:      *workers,
				Partitioner:  "",
				SearchSeed:   *searchSeed,
				SearchBudget: *searchBudget,
			})
			if err != nil {
				return "", nil, err
			}
			return machspace.FormatReport(reps), reps, nil
		}},
		{"attribution", func() (string, any, error) {
			cc, err := parseInts(*traceCores)
			if err != nil {
				return "", nil, err
			}
			rows, err := experiments.Attribution(context.Background(), r, *traceKernel, cc)
			if err != nil {
				return "", nil, err
			}
			out := experiments.FormatAttribution(rows)
			if *traceOut != "" && len(rows) > 0 {
				last := &rows[len(rows)-1]
				data, err := obs.RenderTrace(*traceFormat, last.Meta, last.Events)
				if err != nil {
					return "", nil, err
				}
				if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
					return "", nil, err
				}
				out += fmt.Sprintf("trace written: %s (%s, %d cores, %d events)\n",
					*traceOut, *traceFormat, last.Cores, len(last.Events))
			}
			return out, rows, nil
		}},
	}
	names := make([]string, 0, len(exps)+1)
	for _, e := range exps {
		names = append(names, e.name)
	}
	names = append(names, "all")
	fs.Lookup("exp").Usage = "experiment to run: " + strings.Join(names, ", ")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgpexp: "+format+"\n", args...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgpexp:", err)
		return 1
	}
	if !slices.Contains(names, *exp) {
		return usage("unknown experiment %q (have %s)", *exp, strings.Join(names, ", "))
	}
	for _, err := range []error{sim.CheckEngine(*engine), obs.CheckTraceFormat(*traceFormat)} {
		if err != nil {
			return usage("%v", err)
		}
	}
	var err error
	if latencies, err = parseInt64s(*lats); err != nil {
		return usage("-lat: %v", err)
	}
	if lengths, err = parseInts(*qlens); err != nil {
		return usage("-qlen: %v", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}

	r.SetWorkers(*workers)
	r.SetEngine(*engine)
	jsonOut := map[string]any{}
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, rows, err := e.run()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.name, err))
		}
		if *asJSON {
			jsonOut[e.name] = rows
		} else {
			fmt.Fprintln(stdout, out)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			return fail(err)
		}
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // get up-to-date heap statistics
	return pprof.WriteHeapProfile(f)
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	v64, err := parseInt64s(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v64))
	for i, v := range v64 {
		out[i] = int(v)
	}
	return out, nil
}
