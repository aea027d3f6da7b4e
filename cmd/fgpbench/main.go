// Command fgpbench is the host-performance regression harness: it times the
// full Figure 12 sweep (every kernel compiled and simulated at 1, 2, and 4
// cores) on the per-instruction reference scheduler (serial) and on the
// default threaded-code engine (serial and parallel), and emits a
// machine-readable report.
//
// The report (BENCH_sim.json, committed at the repo root) records total
// sweep wall-clock, the compile/simulate split, host nanoseconds per
// simulated cycle, and per-mode cold and warm speedups over the
// reference-serial baseline. Regenerate it after simulator or compiler
// changes with:
//
//	go run ./cmd/fgpbench -o BENCH_sim.json
//
// A per-engine ns-per-simulated-cycle comparison table is printed to
// stderr; -gate turns the run into a mechanical regression check against a
// committed report (nonzero exit on regression), and -cpuprofile captures
// a CPU profile of the timed sweeps for flame-graph inspection of the
// remaining dispatch overhead per engine.
//
// Simulated results are bit-identical across every mode (the determinism
// tests in internal/sim enforce this); only host time may change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// Mode is one engine/worker configuration of the sweep.
type Mode struct {
	Name    string `json:"name"`
	Engine  string `json:"engine"`  // "reference" or "threaded"
	Workers int    `json:"workers"` // 0 = one per available CPU

	// ColdNs is the best wall-clock of the full sweep from an empty cache:
	// compilation plus simulation. WarmNs re-simulates the sweep's cached
	// artifacts directly, so it isolates simulation time.
	ColdNs  int64   `json:"cold_ns"`
	WarmNs  int64   `json:"warm_ns"`
	ColdRun []int64 `json:"cold_runs_ns"`
	WarmRun []int64 `json:"warm_runs_ns"`

	// SpeedupCold and SpeedupWarm are this mode's speedups over the
	// reference-serial baseline, computed separately from the cold and warm
	// sweeps (warm excludes compilation, so it isolates engine throughput).
	SpeedupCold float64 `json:"speedup_cold"`
	SpeedupWarm float64 `json:"speedup_warm"`

	// NsPerSimCycle is host-warm nanoseconds per simulated cycle across the
	// sweep's parallel runs (the simulation work a warm sweep repeats).
	NsPerSimCycle float64 `json:"ns_per_simulated_cycle"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Benchmark  string `json:"benchmark"`
	Kernels    int    `json:"kernels"`
	Repeats    int    `json:"repeats"`
	CPUs       int    `json:"cpus"` // runtime.NumCPU of the measuring host
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`

	// TotalSimCycles is the number of simulated cycles a warm sweep
	// executes (the 2- and 4-core run of every kernel); identical across
	// modes by construction.
	TotalSimCycles int64 `json:"total_simulated_cycles"`

	Modes []Mode `json:"modes"`

	// Headline ratios, both versus the reference-serial cold sweep.
	SpeedupThreadedSerial   float64 `json:"speedup_threaded_serial"`
	SpeedupThreadedParallel float64 `json:"speedup_threaded_parallel"`

	// Baseline optionally records an externally measured cold sweep of an
	// older checkout (via -baseline/-baseline-ns), e.g. the seed
	// implementation timed with this tool's -once flag built at that
	// commit, A/B-interleaved with the current binary on the same machine.
	Baseline *Baseline `json:"baseline,omitempty"`
}

// Baseline is a cross-version comparison point.
type Baseline struct {
	Name   string `json:"name"`
	ColdNs int64  `json:"cold_ns"`

	// Speedups of the current modes' cold sweeps over this baseline.
	SpeedupThreadedSerial   float64 `json:"speedup_threaded_serial"`
	SpeedupThreadedParallel float64 `json:"speedup_threaded_parallel"`
}

func main() {
	repeats := flag.Int("repeats", 5, "timed repetitions per mode (best is reported)")
	workers := flag.Int("workers", 0, "worker pool size for the parallel modes (0 = one per CPU)")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	once := flag.String("once", "", "run a single cold sweep in the named mode and print its nanoseconds (for cross-version A/B runs)")
	baseName := flag.String("baseline", "", "name of a baseline checkout to record in the report")
	baseNs := flag.Int64("baseline-ns", 0, "externally measured cold-sweep nanoseconds of the -baseline checkout")
	baseCmd := flag.String("baseline-cmd", "", "command printing one cold-sweep nanosecond count (e.g. an older checkout's 'fgpbench -once threaded-parallel' binary); run interleaved with the modes each repeat, overriding -baseline-ns")
	gate := flag.Float64("gate", 0, "fail (exit 1) when any mode's ns_per_simulated_cycle regresses by more than this fraction vs the -against report (0 disables)")
	against := flag.String("against", "BENCH_sim.json", "committed report the -gate check compares against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed sweeps to this file")
	flag.Parse()
	modes := []Mode{
		{Name: "reference-serial", Engine: sim.EngineReference, Workers: 1},
		{Name: "threaded-serial", Engine: sim.EngineThreaded, Workers: 1},
		{Name: "threaded-parallel", Engine: sim.EngineThreaded, Workers: *workers},
	}
	if err := checkFlags(flag.Args(), modes, *repeats, *workers, *gate, *once); err != nil {
		fmt.Fprintln(os.Stderr, "fgpbench:", err)
		os.Exit(2)
	}

	if *once != "" {
		for i := range modes {
			if modes[i].Name == *once {
				cold, _, err := timeSweep(&modes[i])
				if err != nil {
					fatal(fmt.Errorf("%s: %w", *once, err))
				}
				fmt.Println(cold.Nanoseconds())
				return
			}
		}
	}

	simCycles, err := totalSimCycles()
	if err != nil {
		fatal(err)
	}

	rep := Report{
		Benchmark:      "fig12-sweep",
		Kernels:        len(kernels.All()),
		Repeats:        *repeats,
		CPUs:           runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		TotalSimCycles: simCycles,
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Interleave the modes round-robin so slow phases of a shared host are
	// charged to every mode equally rather than to whichever ran last. An
	// external baseline command joins the rotation for the same reason: a
	// cross-version ratio is only meaningful when both sides sample the
	// same host conditions.
	var baseRuns []int64
	for rep := 0; rep < *repeats; rep++ {
		if *baseCmd != "" {
			ns, err := runBaseline(*baseCmd)
			if err != nil {
				fatal(fmt.Errorf("baseline command: %w", err))
			}
			baseRuns = append(baseRuns, ns)
		}
		for i := range modes {
			m := &modes[i]
			cold, warm, err := timeSweep(m)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", m.Name, err))
			}
			m.ColdRun = append(m.ColdRun, cold.Nanoseconds())
			m.WarmRun = append(m.WarmRun, warm.Nanoseconds())
		}
	}
	if len(baseRuns) > 0 {
		*baseNs = slices.Min(baseRuns)
	}
	refCold := float64(slices.Min(modes[0].ColdRun))
	refWarm := float64(slices.Min(modes[0].WarmRun))
	for i := range modes {
		m := &modes[i]
		m.ColdNs = slices.Min(m.ColdRun)
		m.WarmNs = slices.Min(m.WarmRun)
		m.SpeedupCold = refCold / float64(m.ColdNs)
		m.SpeedupWarm = refWarm / float64(m.WarmNs)
		m.NsPerSimCycle = float64(m.WarmNs) / float64(simCycles)
	}
	rep.Modes = modes

	rep.SpeedupThreadedSerial = modes[1].SpeedupCold
	rep.SpeedupThreadedParallel = modes[2].SpeedupCold
	if *baseName != "" && *baseNs > 0 {
		rep.Baseline = &Baseline{
			Name:                    *baseName,
			ColdNs:                  *baseNs,
			SpeedupThreadedSerial:   float64(*baseNs) / float64(modes[1].ColdNs),
			SpeedupThreadedParallel: float64(*baseNs) / float64(modes[2].ColdNs),
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	printTable(&rep)

	if *gate > 0 {
		if err := checkGate(&rep, *against, *gate); err != nil {
			fmt.Fprintln(os.Stderr, "fgpbench: GATE FAILED:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fgpbench: gate passed (threshold %.0f%% vs %s)\n", *gate*100, *against)
	}
}

// printTable writes the per-engine comparison table to stderr.
func printTable(rep *Report) {
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tengine\tcold\twarm\tns/simcycle\tspeedup(cold)\tspeedup(warm)")
	for i := range rep.Modes {
		m := &rep.Modes[i]
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%.3f\t%.2fx\t%.2fx\n",
			m.Name, m.Engine, time.Duration(m.ColdNs), time.Duration(m.WarmNs),
			m.NsPerSimCycle, m.SpeedupCold, m.SpeedupWarm)
	}
	tw.Flush()
}

// checkGate compares the fresh report against a committed one and errors
// when any shared mode's warm ns-per-simulated-cycle regressed by more than
// the allowed fraction. Normalizing by simulated cycles keeps the gate
// meaningful when the kernel set grows between reports.
func checkGate(cur *Report, path string, allowed float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed report: %w", err)
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	oldModes := map[string]*Mode{}
	for i := range old.Modes {
		oldModes[old.Modes[i].Name] = &old.Modes[i]
	}
	var regressions []string
	for i := range cur.Modes {
		m := &cur.Modes[i]
		o, ok := oldModes[m.Name]
		if !ok || o.NsPerSimCycle <= 0 {
			continue
		}
		if m.NsPerSimCycle > o.NsPerSimCycle*(1+allowed) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.3f ns/simcycle vs committed %.3f (+%.0f%%, allowed %.0f%%)",
				m.Name, m.NsPerSimCycle, o.NsPerSimCycle,
				(m.NsPerSimCycle/o.NsPerSimCycle-1)*100, allowed*100))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%s", strings.Join(regressions, "; "))
	}
	return nil
}

// timeSweep runs the Figure 12 sweep on a fresh runner (cold: compile +
// simulate), then re-simulates its 36 cached artifacts directly on the
// mode's engine and workers (warm: simulation only). A second Fig12 on the
// runner would time 36 result-memo lookups instead.
func timeSweep(m *Mode) (cold, warm time.Duration, err error) {
	r := experiments.NewRunner()
	r.SetWorkers(m.Workers)
	r.SetEngine(m.Engine)

	// Settle the heap so earlier modes' garbage is not charged to this one.
	runtime.GC()
	start := time.Now()
	if _, err := experiments.Fig12(r); err != nil {
		return 0, 0, err
	}
	cold = time.Since(start)

	ks := kernels.All()
	arts := make([]*core.Artifact, 2*len(ks))
	for i := range arts {
		if arts[i], err = r.Artifact(ks[i/2], experiments.Variant{Cores: 2 + 2*(i%2)}); err != nil {
			return 0, 0, err
		}
	}
	start = time.Now()
	err = experiments.ParallelEach(len(arts), m.Workers, func(i int) error {
		cfg := arts[i].MachineConfig()
		cfg.Engine = m.Engine
		_, err := arts[i].Run(cfg)
		return err
	})
	warm = time.Since(start)
	return cold, warm, err
}

// totalSimCycles sums the simulated cycles of every parallel run in the
// sweep (the work a warm sweep repeats). Engine choice cannot affect it:
// all engines produce bit-identical results.
func totalSimCycles() (int64, error) {
	r := experiments.NewRunner()
	var total int64
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			_, res, _, err := r.Speedup(k, experiments.Variant{Cores: cores}, nil)
			if err != nil {
				return 0, err
			}
			total += res.Cycles
		}
	}
	return total, nil
}

// runBaseline executes the baseline command and parses the nanosecond
// count it prints.
func runBaseline(cmdline string) (int64, error) {
	parts := strings.Fields(cmdline)
	out, err := exec.Command(parts[0], parts[1:]...).Output()
	if err != nil {
		return 0, err
	}
	var ns int64
	if _, err := fmt.Sscan(string(out), &ns); err != nil {
		return 0, fmt.Errorf("parsing output %q: %w", string(out), err)
	}
	return ns, nil
}

// checkFlags rejects flag values no sweep can run with, before any sweep
// starts; main exits 2 on its error.
func checkFlags(args []string, modes []Mode, repeats, workers int, gate float64, once string) error {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.Name
	}
	switch {
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q (fgpbench takes only flags)", args[0])
	case repeats < 1:
		return fmt.Errorf("-repeats must be >= 1 (got %d)", repeats)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (got %d)", workers)
	case !(gate >= 0):
		return fmt.Errorf("-gate must be >= 0 (got %v)", gate)
	case once != "" && !slices.Contains(names, once):
		return fmt.Errorf("-once: unknown mode %q (have %s)", once, strings.Join(names, ", "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fgpbench:", err)
	os.Exit(1)
}
