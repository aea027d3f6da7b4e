package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var epoch = time.Now()

// nowSecs is a monotonic clock reading in seconds.
func nowSecs() float64 { return time.Since(epoch).Seconds() }

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: what it attempted, what failed, whether
// every output checked out, and the metrics it measured.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Problems lists the first failures, for the report.
	Problems []string `json:"problems,omitempty"`
	// Notes are informational lines: sample counts, percentiles used, class
	// breakdowns.
	Notes []string `json:"notes,omitempty"`
	Host  host     `json:"host"`
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

// fail records a failed operation; a wrong result is a failure too.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// host fingerprints the machine a result was measured on.
type host struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func fingerprint(cfg runConfig) host {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpu, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes one "workload metric value unit" line per metric, the notes
// and problems as comment lines, and finally the one-line JSON summary.
func (r *result) print(w io.Writer) error {
	h := r.Host
	fmt.Fprintf(w, "# %s host nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d scale=%g seconds=%g\n",
		r.Workload, h.NProc, h.GoMaxProcs, h.GoVersion, h.CPU, h.Seed, h.Scale, h.Seconds)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s %s\n", r.Workload, n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# %s FAILED %s\n", r.Workload, p)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, fmtValue(m.Value), m.Unit)
	}
	return json.NewEncoder(w).Encode(r.summary())
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the result's last output line.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func (r *result) summary() summaryLine {
	s := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonValue{}}
	for _, m := range r.Metrics {
		s.Metrics[m.Name] = jsonValue{m.Value, m.Unit}
	}
	return s
}

// finish settles correctness: a run is correct when it attempted work and
// nothing failed.
func (r *result) finish() {
	r.Correct = r.Attempted > 0 && r.Failed == 0
}
