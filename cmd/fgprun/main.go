// Command fgprun compiles and simulates one evaluation kernel, printing
// cycle counts, speedup over the sequential baseline, queue statistics and
// verification status.
//
// Usage:
//
//	fgprun -kernel irs-1 -cores 4
//	fgprun -kernel umt2k-6 -cores 4 -latency 50 -queue 20
//	fgprun -kernel sphot-1 -cores 3 -trace-out trace.json -trace-format perfetto
//	fgprun -kernel sphot-1 -cores 3 -trace-out report.txt -trace-format report
//
// -trace-out records the run's observability event stream and writes it in
// the chosen -trace-format: "text" (one line per retired instruction; only
// the retires are recorded, so the event count it prints is the line
// count), "perfetto" (Chrome trace-event JSON for ui.perfetto.dev,
// schema-validated before the file is reported written), or "report" (the
// per-core stall-attribution table). -trace N prints the first N retired
// instructions as a timeline. One recorded simulation serves both flags
// and verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"fgp/internal/core"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can pin the
// output of whole invocations against golden files.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "", "kernel name (fgpc -list shows options)")
	source := fs.String("source", "", "compile and run an fgp source file instead of a built-in kernel")
	cores := fs.Int("cores", 4, "number of cores")
	latency := fs.Int64("latency", 5, "queue transfer latency in cycles")
	queueLen := fs.Int("queue", 20, "queue length in slots")
	spec := fs.Bool("speculate", false, "enable control-flow speculation")
	partitioner := fs.String("partitioner", "heuristic", "partition selector: heuristic (paper greedy merge) or search (simulator-guided refinement)")
	searchBudget := fs.Int("search-budget", 0, "candidate budget for -partitioner=search (0 = default)")
	searchSeed := fs.Int64("search-seed", 0, "random seed for -partitioner=search")
	verify := fs.Bool("verify", true, "check results against the reference interpreter")
	engine := fs.String("engine", "", fmt.Sprintf("simulation engine: one of %v (default %s)", sim.Engines(), sim.Engines()[0]))
	trace := fs.Int("trace", 0, "print the first N simulated instructions as a timeline")
	traceOut := fs.String("trace-out", "", "record the run's event stream and write it to this file")
	traceFormat := fs.String("trace-format", "text", "format for -trace-out: "+obs.TraceFormats)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgprun: "+format+"\n", args...)
		return 2
	}
	if *engine != "" && !slices.Contains(sim.Engines(), *engine) {
		return usage("unknown engine %q (have %v)", *engine, sim.Engines())
	}
	if !slices.Contains(core.Partitioners(), *partitioner) {
		return usage("unknown partitioner %q (have %v)", *partitioner, core.Partitioners())
	}
	if !slices.Contains(strings.Split(obs.TraceFormats, ", "), *traceFormat) {
		return usage("unknown trace format %q (have %s)", *traceFormat, obs.TraceFormats)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgprun:", err)
		return 1
	}

	var loop *ir.Loop
	var k *kernels.Kernel
	switch {
	case *kernel != "" && *source != "":
		return fail(fmt.Errorf("use exactly one of -kernel or -source"))
	case *kernel != "":
		var err error
		if k, err = kernels.ByName(*kernel); err != nil {
			return fail(err)
		}
		loop = k.Build()
	case *source != "":
		data, err := os.ReadFile(*source)
		if err != nil {
			return fail(err)
		}
		if loop, err = frontend.Parse(data); err != nil {
			var fe *frontend.Error
			if errors.As(err, &fe) {
				fmt.Fprint(stderr, frontend.RenderDiags(*source, fe.Diags))
				return 1
			}
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("missing -kernel or -source"))
	}

	seq, err := core.CompileSequential(loop)
	if err != nil {
		return fail(err)
	}
	sres, err := seq.RunDefault()
	if err != nil {
		return fail(err)
	}

	opt := core.DefaultOptions(*cores)
	opt.Speculate = *spec
	opt.Partitioner = *partitioner
	opt.SearchBudget = *searchBudget
	opt.SearchSeed = *searchSeed
	mc := seq.MachineConfig()
	mc.Cores = *cores
	mc.TransferLatency = *latency
	mc.QueueLen = *queueLen
	opt.Machine = &mc
	par, err := core.Compile(loop, opt)
	if err != nil {
		return fail(err)
	}

	// One simulation serves -trace-out, -trace and verification. The
	// timeline and a text trace need only the retires. A failed run still
	// leaves its partial recording, so the traces are written before the
	// error.
	cfg := par.MachineConfig()
	cfg.Engine = *engine
	var rec *obs.Recorder
	if *traceOut != "" || *trace > 0 {
		rec = &obs.Recorder{RetiresOnly: *traceOut == "" || *traceFormat == "text"}
		cfg.Sink = rec
	}
	var pres *sim.Result
	var runErr error
	if *verify {
		if pres, runErr = par.Verify(cfg); runErr != nil {
			runErr = fmt.Errorf("verification failed: %w", runErr)
		}
	} else {
		pres, runErr = par.Run(cfg)
	}
	if *traceOut != "" {
		data, err := obs.RenderTrace(*traceFormat, rec.Meta, rec.Events)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace             %s (%s, %d events)\n", *traceOut, *traceFormat, len(rec.Events))
	}
	if *trace > 0 {
		data, err := obs.RenderTrace("text", rec.Meta, firstRetires(rec.Events, *trace))
		if err != nil {
			return fail(err)
		}
		stdout.Write(data)
		fmt.Fprintln(stdout, "--- end of trace ---")
	}
	if runErr != nil {
		return fail(runErr)
	}
	if *verify {
		fmt.Fprintln(stdout, "verification: parallel result bit-identical to the reference interpreter")
	}

	if k != nil {
		fmt.Fprintf(stdout, "kernel            %s (%s, %.1f%% of app time)\n", k.Name, k.App, k.PctTime)
	} else {
		fmt.Fprintf(stdout, "kernel            %s (from %s)\n", loop.Name, *source)
	}
	fmt.Fprintf(stdout, "machine           %d cores, queue length %d, transfer latency %d\n", *cores, *queueLen, *latency)
	fmt.Fprintf(stdout, "sequential        %d cycles\n", sres.Cycles)
	fmt.Fprintf(stdout, "parallel          %d cycles\n", pres.Cycles)
	if k != nil {
		fmt.Fprintf(stdout, "speedup           %.2f (paper, 4 cores @ L=5: %.2f)\n",
			float64(sres.Cycles)/float64(pres.Cycles), k.PaperSpeedup)
	} else {
		fmt.Fprintf(stdout, "speedup           %.2f\n", float64(sres.Cycles)/float64(pres.Cycles))
	}
	fmt.Fprintf(stdout, "queue pairs used  %d\n", pres.PairsUsed)
	fmt.Fprintf(stdout, "queue transfers   %d\n", pres.Transfers)
	fmt.Fprintf(stdout, "comm ops in loop  %d (%d transfers/iteration)\n", par.Report.CommOps, par.Report.Transfers)
	fmt.Fprintf(stdout, "load balance      %.2f\n", par.Report.LoadBalance)
	if par.Report.Partitioner == core.PartitionerSearch {
		fmt.Fprintf(stdout, "partitioner       search (explored %d candidates: %d -> %d cycles)\n",
			par.Report.SearchExplored, par.Report.SearchBaselineCycles, par.Report.SearchCycles)
	}
	fmt.Fprintln(stdout, "per-core timeline:")
	for c, cycles := range pres.PerCoreCycles {
		stalls := pres.EnqStalls[c] + pres.DeqStalls[c]
		busy := cycles - stalls
		fmt.Fprintf(stdout, "  core %d: %8d cycles = %8d busy + %7d queue stall (%.0f%% utilized)\n",
			c, cycles, busy, stalls, 100*float64(busy)/float64(max(cycles, 1)))
	}
	return 0
}

// firstRetires returns the prefix of a recording that ends at its n-th
// retire, or the whole recording when it holds fewer.
func firstRetires(events []obs.Event, n int) []obs.Event {
	for i, e := range events {
		if e.Kind == obs.KRetire {
			if n--; n == 0 {
				return events[:i+1]
			}
		}
	}
	return events
}
