package service

import (
	"cmp"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/obs"
)

// TestRecordingArrivesCanonical: the simulator delivers a sink-attached
// run's events in canonical (Time, Core) order, so /v1/run renders
// attribution and traces from its recording without sorting it again. For
// every tier-1 kernel at 2 and 4 cores the recording arrives sorted (a
// stable sort would leave it as it is) and the served attribution is
// byte-identical to the one rendered from a canonicalized copy; so is the
// served text trace of each family's first kernel, which keeps the test
// from formatting and shipping about 100 MB of trace text.
func TestRecordingArrivesCanonical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	canonical := func(a, b obs.Event) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Core, b.Core))
	}
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			art, _, _, err := s.run.ArtifactContext(context.Background(), k, core.DefaultOptions(cores))
			if err != nil {
				t.Fatalf("%s/%d: %v", k.Name, cores, err)
			}
			rec := obs.NewRecorder()
			cfg := art.MachineConfig()
			cfg.Sink = rec
			if _, err := art.Run(cfg); err != nil {
				t.Fatalf("%s/%d: %v", k.Name, cores, err)
			}
			if !slices.IsSortedFunc(rec.Events, canonical) {
				t.Errorf("%s/%d: the recording of %d events is not in (Time, Core) order", k.Name, cores, len(rec.Events))
			}
			sorted := slices.Clone(rec.Events)
			obs.Canonicalize(sorted)

			req := RunRequest{Kernel: k.Name, Cores: cores, Attribution: true}
			if strings.HasSuffix(k.Name, "-1") {
				req.Trace = "text"
			}
			code, rr, msg := postRun(t, ts, req)
			if code != 200 {
				t.Fatalf("%s/%d: %d %s", k.Name, cores, code, msg)
			}
			if rr.Attribution != obs.BuildReport(rec.Meta, sorted).Format() {
				t.Errorf("%s/%d: served attribution differs from the canonicalized recording's", k.Name, cores)
			}
			if req.Trace == "" {
				continue
			}
			want, err := obs.RenderTrace(req.Trace, rec.Meta, sorted)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			if err := json.Unmarshal(rr.Trace, &got); err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s/%d: served trace differs from the canonicalized recording's", k.Name, cores)
			}
		}
	}
}
