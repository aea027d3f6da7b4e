// Command bench is the repository's benchmark. It runs four workloads —
// eval-cold (the paper's evaluation), compile-source (fgp sources through
// the compiler), service-hot (fgpd cache hits) and service-cold (fgpd
// misses, frontier sweeps and swept points) — checks every output, and
// prints each metric as "workload metric value unit" followed by a
// one-line JSON summary.
//
//	bash bench/run.sh                                 # every workload, then the traced run
//	bash bench/run.sh --workload eval-cold --seed 3   # one workload, end-to-end metrics
//	bash bench/run.sh --workload service-hot --trace 1 --trace-out spans.json
//	bash bench/run.sh --workload compile-source --runs 5
//
// With --trace 1 a workload reports per-layer metrics instead: it replays
// its inputs through each layer's public functions, times every call from
// the benchmark's side, and cross-checks the replay against the library.
// See bench/README.md for the workloads, the metrics and the A/B protocol.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is what one workload run gets from the command line.
type runConfig struct {
	seed     int64
	seconds  float64
	scale    float64
	traceOut string
}

// reps is how many times a run sets up, for the setup_s median.
func (c runConfig) reps() int {
	if c.scale < 1 {
		return 1
	}
	return 9
}

// beyond is the tail-sample requirement: minBeyond at full scale, shrunk
// with -scale so smoke runs still report every metric.
func (c runConfig) beyond() int {
	return max(1, int(math.Ceil(minBeyond*min(c.scale, 1))))
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

type workloadDef struct {
	name  string
	why   string
	run   func(runConfig) *result // end-to-end metrics
	trace func(runConfig) *result // per-layer metrics
}

var workloads = []workloadDef{
	{"eval-cold", "the paper's evaluation on a fresh runner: what a researcher waits for; simulation and profiling dominate", runEvalCold, traceEvalCold},
	{"compile-source", "distinct fgp sources compiled at 2 and 4 cores, every 4th also searched: front end and analysis passes dominate, no cache helps", runCompileSource, traceCompileSource},
	{"service-hot", "fgpd /v1/run requests that all repeat earlier work: the cache-hit path", runServiceHot, traceServiceHot},
	{"service-cold", "fgpd misses, frontier sweeps and runs of swept points on never-seen sources: the fill path", runServiceCold, traceServiceCold},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := strings.Join(workloadNames(), ", ")
	workload := fs.String("workload", "", "workload to run: "+names+" (empty = all, each in a fresh process, then the traced run)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "measurement window of one run, in seconds (BENCHMARK.json's run_seconds)")
	scale := fs.Float64("scale", 1, "input size factor in (0, 1]; below 1 also shrinks set-up repetitions and the tail-sample requirement (smoke runs)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = the traced run's per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as Chrome trace-event JSON")
	out := fs.String("o", "", "also write the results as JSON to this file")
	runs := fs.Int("runs", 0, "run each selected workload this many times in fresh processes and print per-metric median and spread")
	against := fs.String("against", "", "with -runs: compare the medians with a file an earlier -runs -o wrote and fail on any end-to-end metric worse by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	var selected []workloadDef
	if *workload == "" {
		selected = workloads
	} else if w, ok := findWorkload(*workload); ok {
		selected = []workloadDef{w}
	} else {
		return usage("unknown workload %q (accepted: %s)", *workload, names)
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1, got %d", *trace)
	case !(*seconds > 0 && *seconds <= 600):
		return usage("-seconds must be in (0, 600], got %g", *seconds)
	case !(*scale > 0 && *scale <= 1):
		return usage("-scale must be in (0, 1], got %g", *scale)
	case *runs < 0:
		return usage("-runs must be >= 0, got %d", *runs)
	case *against != "" && *runs == 0:
		return usage("-against needs -runs")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, traceOut: *traceOut}

	if *runs > 0 {
		return runRepeated(selected, cfg, *trace, *runs, *out, *against, stdout, stderr)
	}
	if *workload == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	w := selected[0]
	var r *result
	if *trace == 1 {
		r = w.trace(cfg)
	} else {
		r = w.run(cfg)
	}
	if err := writeJSONFile(*out, r); err != nil {
		r.fail("writing -o: %v", err)
		r.finish()
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a fresh process of this binary and returns
// its output lines and parsed result.
func child(w string, cfg runConfig, trace int, traceOut string, stderr io.Writer) ([]string, *summaryLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"--workload", w, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--scale", fmt.Sprint(cfg.scale), "--trace", fmt.Sprint(trace)}
	if traceOut != "" {
		args = append(args, "--trace-out", traceOut)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("%s: no output (%v)", w, runErr)
	}
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return lines, nil, fmt.Errorf("%s: last line is not the JSON summary: %v", w, err)
	}
	var exitErr *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exitErr) {
		return lines, &s, runErr
	}
	return lines[:len(lines)-1], &s, nil
}

// runAll runs every workload in its own process, then every traced run,
// and prints their lines followed by one summary over all of them.
func runAll(cfg runConfig, out string, stdout, stderr io.Writer) int {
	total := summaryLine{Correct: true, Metrics: map[string]jsonValue{}}
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			traceOut := ""
			if trace == 1 && cfg.traceOut != "" {
				ext := filepath.Ext(cfg.traceOut)
				traceOut = strings.TrimSuffix(cfg.traceOut, ext) + "-" + w.name + ext
			}
			lines, s, err := child(w.name, cfg, trace, traceOut, stderr)
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				total.Correct = false
				continue
			}
			total.Correct = total.Correct && s.Correct
			total.Attempted += s.Attempted
			total.Failed += s.Failed
			for k, v := range s.Metrics {
				total.Metrics[w.name+"/"+k] = v
			}
		}
	}
	if err := writeJSONFile(out, total); err != nil {
		fmt.Fprintln(stderr, "bench: writing -o:", err)
		total.Correct = false
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil || !total.Correct {
		return 1
	}
	return 0
}

// spread summarizes one metric over repeated runs.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	// IQRShare is (q3-q1)/median; RangeShare is (max-min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
	// Bound is the metric's regression bound from BENCHMARK.json, 0 if it
	// lists none.
	Bound float64 `json:"bound,omitempty"`
}

// runRepeated runs each workload n times, each in a fresh process with the
// seed advanced per run, and prints every metric's median and spread. A
// spread wider than a third of the metric's bound is flagged: that is the
// margin the bounds were set with.
func runRepeated(selected []workloadDef, cfg runConfig, trace, n int, out, against string, stdout, stderr io.Writer) int {
	bounds := readBounds()
	var all []spread
	ok := true
	for _, w := range selected {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			_, s, err := child(w.name, c, trace, "", stderr)
			if err != nil || !s.Correct {
				fmt.Fprintf(stderr, "bench: %s run %d (seed %d) failed: %v\n", w.name, i+1, c.seed, err)
				ok = false
				continue
			}
			for k, v := range s.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := values[k]
			q1, med, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			sp := spread{Workload: w.name, Metric: k, Unit: units[k], N: len(xs), Median: med, Q1: q1, Q3: q3,
				Min: lo, Max: hi, Bound: bounds[k].bound}
			if med != 0 {
				sp.IQRShare, sp.RangeShare = (q3-q1)/math.Abs(med), (hi-lo)/math.Abs(med)
			}
			flag := ""
			if sp.Bound > 0 && sp.IQRShare > sp.Bound/3 {
				flag = "  WIDE (iqr above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%s %s median=%s %s iqr=%.4f range=%.4f n=%d%s\n",
				w.name, k, fmtValue(med), sp.Unit, sp.IQRShare, sp.RangeShare, sp.N, flag)
			all = append(all, sp)
		}
	}
	if err := writeJSONFile(out, all); err != nil {
		fmt.Fprintln(stderr, "bench: writing -o:", err)
		ok = false
	}
	if against != "" {
		if err := compareRuns(against, all, bounds, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// floors are absolute slack added to a metric's relative bound: set-up
// times are short enough that scheduling jitter alone moves them by tens
// of milliseconds.
var floors = map[string]float64{"setup_s": 0.05}

// compareRuns checks the medians of cur against a parent's saved -runs
// output: a metric worse than the parent's median by more than its bound
// (plus its floor) is a regression.
func compareRuns(path string, cur []spread, bounds map[string]boundSpec, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var parent []spread
	if err := json.Unmarshal(data, &parent); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	base := map[string]spread{}
	for _, p := range parent {
		base[p.Workload+"/"+p.Metric] = p
	}
	var worse []string
	for _, c := range cur {
		b, ok := bounds[c.Metric]
		p, found := base[c.Workload+"/"+c.Metric]
		if !ok || !found {
			continue
		}
		verdict := "ok"
		if regressed(p.Median, c.Median, b.bound, floors[c.Metric], b.higherBetter) {
			verdict = "REGRESSED"
			worse = append(worse, c.Workload+"/"+c.Metric)
		}
		fmt.Fprintf(stdout, "%s %s parent=%s change=%s bound=%g %s\n", c.Workload, c.Metric, fmtValue(p.Median), fmtValue(c.Median), b.bound, verdict)
	}
	if len(worse) > 0 {
		return fmt.Errorf("regressed beyond the bound: %s", strings.Join(worse, ", "))
	}
	return nil
}

type boundSpec struct {
	bound        float64
	higherBetter bool
}

// readBounds loads the end-to-end bounds from BENCHMARK.json at the
// repository root (empty when it cannot be read).
func readBounds() map[string]boundSpec {
	bounds := map[string]boundSpec{}
	root, err := repoRoot()
	if err != nil {
		return bounds
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bounds
	}
	var spec benchmarkSpec
	if json.Unmarshal(data, &spec) == nil {
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = boundSpec{m.Bound, m.Better == "higher"}
		}
	}
	return bounds
}

// benchmarkSpec is the part of BENCHMARK.json the command reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory holding the committed golden cycle table.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenCyclesPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory", goldenCyclesPath)
		}
		dir = parent
	}
}
