package main

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer during the traced run. Spans of one
// operation share Op; Parent indexes the enclosing span (-1 for the
// operation's root). N carries the span's count, where it has one:
// simulated cycles for sim, candidates for search, bytes for ir.address.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Op         int
	N          int64
}

// tracer keeps the traced run's spans in memory. A nil *tracer records
// nothing, so the replay functions run untraced when handed nil.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Op: t.op})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// count adds n to the span's count.
func (t *tracer) count(i int, n int64) {
	if t != nil {
		t.spans[i].N += n
	}
}

// layerTimes folds the spans recorded since index from into per-layer self
// times (a span's duration minus what its children cover), inclusive times,
// per-layer counts ("<name>" sums N, "<name>.calls" counts spans), and the
// total and uncovered time of the root spans.
func (t *tracer) layerTimes(from int) (self, incl map[string]time.Duration, counts map[string]int64, root, rootSelf time.Duration) {
	self, incl, counts = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int64{}
	spans := t.spans[from:]
	own := make([]time.Duration, len(spans))
	for i, s := range spans {
		own[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= from {
			own[s.Parent-from] -= s.End - s.Start
		}
	}
	for i, s := range spans {
		if s.Parent < from {
			root += s.End - s.Start
			rootSelf += own[i]
			continue
		}
		self[s.Name] += own[i]
		incl[s.Name] += s.End - s.Start
		counts[s.Name] += s.N
		counts[s.Name+".calls"]++
	}
	return self, incl, counts, root, rootSelf
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events on one track, microsecond timestamps), which Perfetto
// and chrome://tracing open directly.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "fgp benchmark traced run"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "replay"}},
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: "layer", Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.Op, "parent": s.Parent, "n": s.N},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
