package obs

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic is a small, hand-checkable two-core stream: core 0 enqueues
// twice into q3, core 1 dequeues twice (stalling on visibility first),
// and core 1 takes one L1 miss that waits at the memory port.
func synthetic() (Meta, []Event) {
	meta := Meta{
		Cores:           2,
		TransferLatency: 5,
		Queues:          []QueueMeta{{ID: 3, Src: 0, Dst: 1, Class: "f64", Cap: 4}},
		RegionNames:     map[int32]string{0: "iter"},
	}
	events := []Event{
		{Kind: KRegionEnter, Core: 0, Region: 0, Queue: -1, Time: 0, End: 0},
		{Kind: KRetire, Core: 0, Op: 2, PC: 0, Queue: -1, Time: 0, End: 1},
		{Kind: KEnq, Core: 0, Queue: 3, Occ: 1, Seq: 0, Time: 1, End: 1},
		{Kind: KRetire, Core: 0, Op: 8, PC: 1, Queue: -1, Time: 1, End: 2},
		{Kind: KStallBegin, Core: 1, Cause: CauseDeqEmpty, Queue: -1, Time: 0, End: 6},
		{Kind: KStallEnd, Core: 1, Cause: CauseDeqEmpty, Queue: -1, Time: 6, End: 6},
		{Kind: KDeq, Core: 1, Queue: 3, Occ: 0, Seq: 0, Time: 6, End: 6},
		{Kind: KRetire, Core: 1, Op: 9, PC: 0, Queue: -1, Time: 0, End: 7},
		{Kind: KEnq, Core: 0, Queue: 3, Occ: 1, Seq: 1, Time: 2, End: 2},
		{Kind: KRetire, Core: 0, Op: 8, PC: 2, Queue: -1, Time: 2, End: 3},
		{Kind: KRegionExit, Core: 0, Region: 0, Queue: -1, Time: 3, End: 3},
		{Kind: KRetire, Core: 0, Op: 13, PC: 3, Queue: -1, Time: 3, End: 3},
		{Kind: KStallBegin, Core: 1, Cause: CauseMemPort, Queue: -1, Time: 7, End: 9},
		{Kind: KStallEnd, Core: 1, Cause: CauseMemPort, Queue: -1, Time: 9, End: 9},
		{Kind: KStallBegin, Core: 1, Cause: CauseL1Miss, Queue: -1, Time: 10, End: 29},
		{Kind: KStallEnd, Core: 1, Cause: CauseL1Miss, Queue: -1, Time: 29, End: 29},
		{Kind: KRetire, Core: 1, Op: 6, PC: 1, Queue: -1, Time: 7, End: 29},
		{Kind: KDeq, Core: 1, Queue: 3, Occ: 0, Seq: 1, Time: 29, End: 29},
		{Kind: KRetire, Core: 1, Op: 9, PC: 2, Queue: -1, Time: 29, End: 30},
		{Kind: KRetire, Core: 1, Op: 13, PC: 3, Queue: -1, Time: 30, End: 30},
	}
	Canonicalize(events)
	return meta, events
}

func TestCanonicalizeOrdersByTimeThenCore(t *testing.T) {
	_, events := synthetic()
	for i := 1; i < len(events); i++ {
		a, b := &events[i-1], &events[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Core > b.Core) {
			t.Fatalf("event %d out of canonical order: %+v before %+v", i, a, b)
		}
	}
}

func TestRenderTextFormat(t *testing.T) {
	meta, events := synthetic()
	out, err := RenderTrace("text", meta, events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var retires int
	for _, e := range events {
		if e.Kind == KRetire {
			retires++
		}
	}
	if len(lines) != retires {
		t.Fatalf("got %d lines for %d retires:\n%s", len(lines), retires, out)
	}
	if lines[0] != "t=0..1 core=0 pc=0 consti" {
		t.Errorf("first line = %q, want %q", lines[0], "t=0..1 core=0 pc=0 consti")
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "t=") || !strings.Contains(l, " core=") || !strings.Contains(l, " pc=") {
			t.Errorf("malformed trace line %q", l)
		}
	}
}

func TestSumStalls(t *testing.T) {
	_, events := synthetic()
	sums := SumStalls(events)
	if sums[CauseDeqEmpty] != 6 {
		t.Errorf("deq-empty = %d, want 6", sums[CauseDeqEmpty])
	}
	if sums[CauseMemPort] != 2 {
		t.Errorf("mem-port = %d, want 2", sums[CauseMemPort])
	}
	if sums[CauseL1Miss] != 19 {
		t.Errorf("l1-miss = %d, want 19", sums[CauseL1Miss])
	}
	if sums[CauseEnqFull] != 0 {
		t.Errorf("enq-full = %d, want 0", sums[CauseEnqFull])
	}
}

func TestBuildReport(t *testing.T) {
	meta, events := synthetic()
	r := BuildReport(meta, events)
	if r.TotalCycles != 30 {
		t.Errorf("TotalCycles = %d, want 30", r.TotalCycles)
	}
	if len(r.Cores) != 2 {
		t.Fatalf("got %d core reports, want 2", len(r.Cores))
	}
	c0, c1 := &r.Cores[0], &r.Cores[1]
	if c0.Cycles != 3 || c0.Instrs != 4 || c0.Busy != 3 {
		t.Errorf("core 0 = cycles %d instrs %d busy %d, want 3/4/3", c0.Cycles, c0.Instrs, c0.Busy)
	}
	// Core 1: 30 cycles minus 6 deq-empty, 2 mem-port, 19 l1-miss = 3 busy.
	if c1.Cycles != 30 || c1.Busy != 3 {
		t.Errorf("core 1 = cycles %d busy %d, want 30/3", c1.Cycles, c1.Busy)
	}
	// Both cores busy 3 => perfectly balanced.
	if r.Imbalance != 1.0 {
		t.Errorf("imbalance = %v, want 1.0", r.Imbalance)
	}
	if len(r.Queues) != 1 {
		t.Fatalf("got %d queue reports, want 1", len(r.Queues))
	}
	q := &r.Queues[0]
	if q.Transfers != 2 || q.HighWater != 1 {
		t.Errorf("queue = transfers %d high-water %d, want 2/1", q.Transfers, q.HighWater)
	}
	// Occupied [1,6) and [2? no: samples at t=1 occ1, t=2 occ1, t=6 occ0,
	// t=29 occ0] => integral = 1*(6-1) = 5 over 30 cycles.
	if want := 5.0 / 30.0; q.AvgOcc != want {
		t.Errorf("avg occupancy = %v, want %v", q.AvgOcc, want)
	}
	text := r.Format()
	for _, needle := range []string{
		"stall attribution — 2 cores, 30 cycles",
		"deq-empty", "enq-full", "l1-miss", "mem-port",
		"totals: deq-empty 6  enq-full 0  l1-miss 19  mem-port 2",
		"q3", "0->1",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("formatted report missing %q:\n%s", needle, text)
		}
	}
}

func TestWritePerfettoValidates(t *testing.T) {
	meta, events := synthetic()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerfetto(buf.Bytes()); err != nil {
		t.Fatalf("exporter output fails its own validator: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		`"ph":"M"`, `"ph":"X"`, `"ph":"s"`, `"ph":"f"`, `"ph":"C"`,
		`"q3.0"`, `"q3.1"`, "core 0", "core 1", "iter",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("perfetto JSON missing %s", needle)
		}
	}
}

func TestValidatePerfettoRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"empty":         `{"traceEvents":[]}`,
		"missing ph":    `{"traceEvents":[{"name":"x"}]}`,
		"missing name":  `{"traceEvents":[{"ph":"X"}]}`,
		"x without dur": `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Z","ts":0}]}`,
		"unpaired flow": `{"traceEvents":[{"name":"q","ph":"s","ts":0,"pid":0,"tid":0,"id":"q1.0"}]}`,
	}
	for name, data := range cases {
		if err := ValidatePerfetto([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted invalid trace %s", name, data)
		}
	}
}
