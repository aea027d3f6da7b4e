package main

import (
	"os"
	"strconv"
	"strings"
)

// Steal correction. The reference host is a shared virtual machine whose
// hypervisor takes CPU time away from it — steal time — in amounts that
// drift from under 1% to about a quarter of the time the virtual CPUs were
// runnable, far more than the changes the benchmark must resolve.
// Over ten runs per workload, the share stolen during a run correlated
// with the run's median latency at 0.60–0.95. So a run reads /proc/stat
// around its set-up and around its measured window and reports times with
// the stolen share taken out: wall time divided by stolen(). Steal counts
// only time a virtual CPU wanted to run and was kept off its physical one,
// so nothing the program under test does moves it.

// cpuTicks is a reading of the machine's CPU time from /proc/stat, in
// clock ticks: time spent running anything, and time the hypervisor kept
// a runnable virtual CPU off its physical one (steal).
type cpuTicks struct{ run, steal float64 }

// readCPUTicks reads /proc/stat; a zero reading means it is unavailable.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{run: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolen is how much longer runnable work took between two readings than
// it would have had no CPU time been stolen: (run+steal)/run. It is 1 when
// nothing ran or a reading is missing, so times stay wall-clock times.
func stolen(a, b cpuTicks) float64 {
	run, steal := b.run-a.run, b.steal-a.steal
	if a.run == 0 || run <= 0 || steal < 0 {
		return 1
	}
	return (run + steal) / run
}
