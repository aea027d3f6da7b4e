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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/machspace"
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

	// Tier2 sweeps the committed fuzzer-discovered kernels in
	// internal/kernels/tier2 — built from .fgp source through the frontend,
	// so the sweep exercises the full front door. Additive: checkGate
	// compares modes by name only, so reports without this section still
	// gate cleanly.
	Tier2 *Tier2Sweep `json:"tier2,omitempty"`

	// Search times the partitioning-as-search experiment (internal/search)
	// and records its simulated payoff over the heuristic seed. Additive,
	// like Tier2.
	Search *SearchSweep `json:"search,omitempty"`

	// Machspace times one budgeted machine-space sweep (internal/machspace)
	// over the default grid and records each kernel's frontier summary —
	// the host cost of answering "what hardware does this loop need?".
	// Additive, like Tier2.
	Machspace *MachspaceSweep `json:"machspace,omitempty"`

	// Headline ratios, both versus the reference-serial cold sweep.
	SpeedupThreadedSerial   float64 `json:"speedup_threaded_serial"`
	SpeedupThreadedParallel float64 `json:"speedup_threaded_parallel"`

	// Baseline optionally records an externally measured cold sweep of an
	// older checkout (via -baseline/-baseline-ns), e.g. the seed
	// implementation timed with this tool's -once flag built at that
	// commit, A/B-interleaved with the current binary on the same machine.
	Baseline *Baseline `json:"baseline,omitempty"`
}

// Tier2Sweep records simulated speedups for the tier-2 source corpus.
type Tier2Sweep struct {
	Cores   int        `json:"cores"`
	Kernels []Tier2Row `json:"kernels"`
}

// Tier2Row is one tier-2 kernel's simulated result.
type Tier2Row struct {
	Name      string  `json:"name"`
	SeqCycles int64   `json:"seq_cycles"`
	Cycles    int64   `json:"cycles"`
	Speedup   float64 `json:"speedup"`
}

// SearchSweep records one partition-search run over the full catalog
// (tier-1 and tier-2) at one core count: what the search costs in host time
// and what it buys in simulated cycles versus the paper heuristic.
type SearchSweep struct {
	Cores  int   `json:"cores"`
	Budget int   `json:"budget"`
	Seed   int64 `json:"seed"`
	HostNs int64 `json:"host_ns"`

	// Totals across all kernels; SearchedCycles <= HeuristicCycles by
	// construction (the searcher is seeded with the heuristic partition).
	HeuristicCycles int64   `json:"heuristic_cycles_total"`
	SearchedCycles  int64   `json:"searched_cycles_total"`
	GainPct         float64 `json:"gain_pct"`
	Improved        int     `json:"improved_kernels"`
	Kernels         int     `json:"kernels"`
}

// MachspaceSweep records one machine-space sweep over the default grid.
type MachspaceSweep struct {
	PointsPerKernel int            `json:"points_per_kernel"`
	HostNs          int64          `json:"host_ns"`
	Kernels         []MachspaceRow `json:"kernels"`
}

// MachspaceRow is one kernel's frontier summary.
type MachspaceRow struct {
	Name         string  `json:"name"`
	Rejected     int     `json:"rejected"`
	FrontierSize int     `json:"frontier_size"`
	BestSpeedup  float64 `json:"best_speedup"`
	// Target2HWCost is the /v1/frontier inverse query: the cheapest
	// hardware cost reaching 2.0x on this kernel (0 = unreachable).
	Target2HWCost int64 `json:"target2_hw_cost"`
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
	msKernels := flag.String("machspace-kernels", "umt2k-4,umt2k-2,lammps-2", "comma-separated kernels for the machine-space sweep section (empty disables)")
	searchBudget := flag.Int("search-budget", 48, "candidate budget for the partition-search sweep section (0 disables)")
	searchSeed := flag.Int64("search-seed", 1, "seed for the partition-search sweep section")
	gate := flag.Float64("gate", 0, "fail (exit 1) when any mode's ns_per_simulated_cycle regresses by more than this fraction vs the -against report (0 disables)")
	against := flag.String("against", "BENCH_sim.json", "committed report the -gate check compares against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed sweeps to this file")
	flag.Parse()
	if *repeats < 1 {
		fatal(fmt.Errorf("repeats must be >= 1"))
	}

	modes := []Mode{
		{Name: "reference-serial", Engine: sim.EngineReference, Workers: 1},
		{Name: "threaded-serial", Engine: sim.EngineThreaded, Workers: 1},
		{Name: "threaded-parallel", Engine: sim.EngineThreaded, Workers: *workers},
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
		fatal(fmt.Errorf("unknown mode %q", *once))
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
		*baseNs = min64(baseRuns)
	}
	refCold := float64(min64(modes[0].ColdRun))
	refWarm := float64(min64(modes[0].WarmRun))
	for i := range modes {
		m := &modes[i]
		m.ColdNs = min64(m.ColdRun)
		m.WarmNs = min64(m.WarmRun)
		m.SpeedupCold = refCold / float64(m.ColdNs)
		m.SpeedupWarm = refWarm / float64(m.WarmNs)
		m.NsPerSimCycle = float64(m.WarmNs) / float64(simCycles)
	}
	rep.Modes = modes

	t2, err := tier2Sweep(4)
	if err != nil {
		fatal(fmt.Errorf("tier2 sweep: %w", err))
	}
	rep.Tier2 = t2

	if *searchBudget > 0 {
		ss, err := searchSweep(4, *searchBudget, *searchSeed)
		if err != nil {
			fatal(fmt.Errorf("search sweep: %w", err))
		}
		rep.Search = ss
	}

	if *msKernels != "" {
		ms, err := machspaceSweep(strings.Split(*msKernels, ","))
		if err != nil {
			fatal(fmt.Errorf("machspace sweep: %w", err))
		}
		rep.Machspace = ms
	}

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
	if rep.Tier2 != nil {
		tw = tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "\ntier2 kernel\tseq cycles\t%d-core cycles\tspeedup\n", rep.Tier2.Cores)
		for _, r := range rep.Tier2.Kernels {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fx\n", r.Name, r.SeqCycles, r.Cycles, r.Speedup)
		}
		tw.Flush()
	}
	if rep.Search != nil {
		s := rep.Search
		fmt.Fprintf(os.Stderr,
			"\npartition search (%d-core, budget %d, seed %d): %d of %d kernels improved, %.2f%% total cycle gain, %v host time\n",
			s.Cores, s.Budget, s.Seed, s.Improved, s.Kernels, s.GainPct, time.Duration(s.HostNs))
	}
}

// searchSweep times one partition-search run over the full catalog (tier-1
// plus the tier-2 source corpus) at one core count and totals its simulated
// payoff against the heuristic seed.
func searchSweep(cores, budget int, seed int64) (*SearchSweep, error) {
	start := time.Now()
	rows, err := experiments.Search(experiments.NewRunner(), experiments.SearchConfig{
		Budget: budget, Seed: seed, Cores: []int{cores}, Tier2: true,
	})
	if err != nil {
		return nil, err
	}
	ss := &SearchSweep{Cores: cores, Budget: budget, Seed: seed,
		HostNs: time.Since(start).Nanoseconds(), Kernels: len(rows)}
	for _, r := range rows {
		ss.HeuristicCycles += r.HeuristicCycles
		ss.SearchedCycles += r.SearchedCycles
		if r.SearchedCycles < r.HeuristicCycles {
			ss.Improved++
		}
	}
	if ss.HeuristicCycles > 0 {
		ss.GainPct = 100 * float64(ss.HeuristicCycles-ss.SearchedCycles) / float64(ss.HeuristicCycles)
	}
	return ss, nil
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

// tier2Sweep builds every committed tier-2 kernel from source and compares
// its simulated parallel cycles against the sequential baseline. The
// experiments runner is keyed to the built-in catalog, so this calls the
// compiler core directly.
func tier2Sweep(cores int) (*Tier2Sweep, error) {
	ks, err := tier2.All()
	if err != nil {
		return nil, err
	}
	sw := &Tier2Sweep{Cores: cores}
	for _, k := range ks {
		l, err := k.Build()
		if err != nil {
			return nil, err
		}
		seq, err := core.CompileSequential(l)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		seqRes, err := seq.RunDefault()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		art, err := core.Compile(l, core.DefaultOptions(cores))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		res, err := art.RunDefault()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		sw.Kernels = append(sw.Kernels, Tier2Row{
			Name:      k.Name,
			SeqCycles: seqRes.Cycles,
			Cycles:    res.Cycles,
			Speedup:   float64(seqRes.Cycles) / float64(res.Cycles),
		})
	}
	return sw, nil
}

// machspaceSweep runs the machine-space sweep over the default grid for
// the named kernels, timing the whole thing cold (fresh runner, so the
// host cost includes the per-(cores, queue) compiles).
func machspaceSweep(names []string) (*MachspaceSweep, error) {
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	r := experiments.NewRunner()
	start := time.Now()
	reps, err := machspace.Report(context.Background(), r, names, machspace.DefaultGrid(), nil, machspace.Options{})
	if err != nil {
		return nil, err
	}
	ms := &MachspaceSweep{HostNs: time.Since(start).Nanoseconds()}
	for _, kr := range reps {
		ms.PointsPerKernel = kr.Points
		row := MachspaceRow{
			Name:         kr.Kernel,
			Rejected:     kr.Rejected,
			FrontierSize: len(kr.Frontier),
		}
		for _, q := range kr.Queries {
			if q.Target == 2.0 && q.Found {
				row.Target2HWCost = q.Minimal.HWCost
			}
		}
		// The frontier is cost-ascending and speedup-ascending, so its last
		// entry is the surface's ceiling.
		if n := len(kr.Frontier); n > 0 {
			row.BestSpeedup = kr.Frontier[n-1].Speedup
		}
		ms.Kernels = append(ms.Kernels, row)
	}
	return ms, nil
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

func min64(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fgpbench:", err)
	os.Exit(1)
}
