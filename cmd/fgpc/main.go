// Command fgpc is the compiler inspection tool: it compiles a kernel — a
// built-in by name, an .fgp source file, or a loop in the IR wire encoding
// — and dumps any stage of the pipeline: the IR, the lowered TAC with
// fiber assignments, the partition map, the compiler report, or the
// generated per-core machine code. -emit=source runs the direction the
// other dumps don't: it decompiles the selected kernel back to fgp source.
//
// Usage:
//
//	fgpc -kernel lammps-1 -cores 4 -dump ir,tac,parts,report,asm
//	fgpc -source kernel.fgp -dump report
//	fgpc -kernel irs-1 -emit source > irs1.fgp
//	fgpc -list
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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// dumpStages lists the stages -dump accepts.
var dumpStages = []string{"ir", "tac", "fibers", "parts", "report", "asm"}

// run is main with its environment made explicit, so tests can pin the
// output of whole invocations against golden files.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgpc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "", "kernel name (see -list)")
	source := fs.String("source", "", "compile an fgp source file instead of a built-in kernel")
	irPath := fs.String("ir", "", "compile a loop in the IR JSON wire encoding from this file")
	cores := fs.Int("cores", 4, "number of cores to partition for")
	dump := fs.String("dump", "report", "comma-separated dumps: "+strings.Join(dumpStages, ", "))
	emit := fs.String("emit", "", "emit the kernel instead of compiling it: source (fgp source text)")
	spec := fs.Bool("speculate", false, "enable control-flow speculation")
	throughput := fs.Bool("throughput", false, "enable the DAG merge heuristic")
	schedule := fs.Bool("schedule", false, "enable within-region scheduling")
	partitioner := fs.String("partitioner", "heuristic", "partition selector: heuristic (paper greedy merge) or search (simulator-guided refinement)")
	searchBudget := fs.Int("search-budget", 0, "candidate budget for -partitioner=search (0 = default)")
	searchSeed := fs.Int64("search-seed", 0, "random seed for -partitioner=search")
	list := fs.Bool("list", false, "list available kernels")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgpc: "+format+"\n", args...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgpc:", err)
		return 1
	}
	if !slices.Contains(core.Partitioners(), *partitioner) {
		return usage("unknown partitioner %q (have %v)", *partitioner, core.Partitioners())
	}
	wants := map[string]bool{}
	for _, d := range strings.Split(*dump, ",") {
		d = strings.TrimSpace(d)
		if !slices.Contains(dumpStages, d) {
			return usage("unknown dump %q (have %s)", d, strings.Join(dumpStages, ", "))
		}
		wants[d] = true
	}

	if *list {
		for _, k := range kernels.All() {
			fmt.Fprintf(stdout, "%-10s %-8s %5.1f%% of app time; paper 4-core speedup %.2f\n",
				k.Name, k.App, k.PctTime, k.PaperSpeedup)
		}
		return 0
	}
	loop, err := loadLoop(*kernel, *source, *irPath)
	if err != nil {
		var fe *frontend.Error
		if errors.As(err, &fe) {
			fmt.Fprint(stderr, frontend.RenderDiags(*source, fe.Diags))
			return 1
		}
		return fail(err)
	}

	if *emit != "" {
		if *emit != "source" {
			return fail(fmt.Errorf("unknown -emit format %q (only \"source\")", *emit))
		}
		fmt.Fprint(stdout, frontend.Format(loop))
		return 0
	}

	opt := core.DefaultOptions(*cores)
	opt.Speculate = *spec
	opt.Throughput = *throughput
	opt.Schedule = *schedule
	opt.Partitioner = *partitioner
	opt.SearchBudget = *searchBudget
	opt.SearchSeed = *searchSeed
	a, err := core.Compile(loop, opt)
	if err != nil {
		return fail(err)
	}

	if wants["ir"] {
		fmt.Fprintln(stdout, ir.Print(a.Loop))
	}
	if wants["tac"] || wants["fibers"] {
		fmt.Fprintln(stdout, a.Fn.Dump())
	}
	if wants["parts"] {
		for pi, fibers := range a.Parts.Parts {
			fmt.Fprintf(stdout, "partition %d (cost %d): fibers %v\n", pi, a.Parts.Cost[pi], fibers)
		}
		fmt.Fprintln(stdout)
	}
	if wants["report"] {
		r := a.Report
		fmt.Fprintf(stdout, "kernel         %s\n", r.Kernel)
		fmt.Fprintf(stdout, "cores          %d\n", r.Cores)
		fmt.Fprintf(stdout, "initial fibers %d\n", r.InitialFibers)
		fmt.Fprintf(stdout, "data deps      %d\n", r.DataDeps)
		fmt.Fprintf(stdout, "load balance   %.2f (compute ops per partition: %v)\n", r.LoadBalance, r.ComputeOps)
		fmt.Fprintf(stdout, "comm ops       %d (%d transfers/iteration)\n", r.CommOps, r.Transfers)
		fmt.Fprintf(stdout, "static queues  %d core pairs\n", r.StaticQueues)
		fmt.Fprintf(stdout, "merge steps    %d\n", r.MergeSteps)
		if r.SpeculatedIfs > 0 {
			fmt.Fprintf(stdout, "speculated ifs %d\n", r.SpeculatedIfs)
		}
		if r.Partitioner == core.PartitionerSearch {
			fmt.Fprintf(stdout, "partitioner    search (explored %d candidates: %d -> %d cycles)\n",
				r.SearchExplored, r.SearchBaselineCycles, r.SearchCycles)
		}
		fmt.Fprintln(stdout)
	}
	if wants["asm"] {
		for _, p := range a.Compiled.Programs {
			fmt.Fprintln(stdout, p.Disasm())
		}
	}
	return 0
}

// loadLoop resolves the kernel selection flags — exactly one of a catalog
// name, an .fgp source path, or an IR wire-encoding path — to a validated
// loop. Source failures come back as *frontend.Error so the caller can
// render positioned diagnostics.
func loadLoop(kernel, sourcePath, irPath string) (*ir.Loop, error) {
	selected := 0
	for _, set := range []bool{kernel != "", sourcePath != "", irPath != ""} {
		if set {
			selected++
		}
	}
	switch {
	case selected == 0:
		return nil, fmt.Errorf("missing -kernel, -source or -ir (use -list to see built-ins)")
	case selected > 1:
		return nil, fmt.Errorf("use exactly one of -kernel, -source or -ir")
	case kernel != "":
		k, err := kernels.ByName(kernel)
		if err != nil {
			return nil, err
		}
		return k.Build(), nil
	case sourcePath != "":
		data, err := os.ReadFile(sourcePath)
		if err != nil {
			return nil, err
		}
		return frontend.Parse(data)
	default:
		data, err := os.ReadFile(irPath)
		if err != nil {
			return nil, err
		}
		return ir.UnmarshalLoop(data)
	}
}
