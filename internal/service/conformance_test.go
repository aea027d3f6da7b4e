// Entry-point conformance: every way into the pipeline reports the same
// cycles and sequential cycles for the same loop at the paper-default
// machine — the library (core.Compile + Run), the experiment runner, and
// fgpd's /v1/run, /v1/batch and /v1/frontier. Run under -race it is also
// the check that sharing one cache across those entry points is safe: one
// daemon compiles through /v1/run, another through a frontier sweep whose
// artifacts its batch items then reuse.

package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/machspace"
)

// conformanceInput is one loop and the two ways a request can name it.
type conformanceInput struct {
	name   string
	kernel *kernels.Kernel
	req    RunRequest // the loop selector only
}

func conformanceInputs(t *testing.T) []conformanceInput {
	t.Helper()
	var in []conformanceInput
	for _, k := range kernels.All() {
		in = append(in, conformanceInput{k.Name, k, RunRequest{Kernel: k.Name}})
	}
	fromSource := func(name string, src []byte) {
		l, err := frontend.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := kernels.Wrap(l.Name, func() *ir.Loop { return l })
		in = append(in, conformanceInput{name, k, RunRequest{Source: string(src)}})
	}
	t2, err := tier2.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range t2 {
		fromSource(k.Name, k.Source)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "source", "*.fgp"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example sources (%v)", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fromSource(filepath.Base(path), src)
	}
	return in
}

func TestEntryPointConformance(t *testing.T) {
	coreCounts := []int{2, 4}
	runner := experiments.NewRunner()
	_, runTS := newTestServer(t, Config{})
	sweepSrv, sweepTS := newTestServer(t, Config{})

	for _, in := range conformanceInputs(t) {
		// The library, directly.
		seqArt, err := core.CompileSequential(in.kernel.Build())
		if err != nil {
			t.Fatalf("%s: sequential compile: %v", in.name, err)
		}
		seqRes, err := seqArt.Run(seqArt.MachineConfig())
		if err != nil {
			t.Fatalf("%s: sequential run: %v", in.name, err)
		}
		seq := seqRes.Cycles

		// A frontier sweep over the core counts, read back whole from the
		// cache it filled.
		body, _ := json.Marshal(FrontierRequest{Kernel: in.req.Kernel, Source: in.req.Source,
			Grid: &machspace.Grid{Cores: coreCounts}})
		code, fr, data := postFrontier(t, sweepTS, string(body))
		if code != 200 {
			t.Fatalf("%s: frontier: %d %s", in.name, code, data)
		}
		v, _, err := sweepSrv.run.Cache().Do(context.Background(), surfaceKind, fr.SurfaceAddress, nil)
		if err != nil {
			t.Fatalf("%s: surface not cached: %v", in.name, err)
		}
		surf := v.(*machspace.Surface)

		// Batch items on the sweeping daemon reuse the sweep's artifacts.
		var items []RunRequest
		for _, c := range coreCounts {
			item := in.req
			item.Cores = c
			items = append(items, item)
		}
		code, batch, trailer := postBatch(t, sweepTS, BatchRequest{Items: items})
		if code != 200 || trailer == nil || trailer.OK != len(items) {
			t.Fatalf("%s: batch: %d %+v", in.name, code, trailer)
		}

		for i, c := range coreCounts {
			art, err := core.Compile(in.kernel.Build(), core.DefaultOptions(c))
			if err != nil {
				t.Fatalf("%s/%d: compile: %v", in.name, c, err)
			}
			res, err := art.Run(art.MachineConfig())
			if err != nil {
				t.Fatalf("%s/%d: run: %v", in.name, c, err)
			}
			want := [2]int64{res.Cycles, seq}

			_, rres, _, err := runner.Speedup(in.kernel, experiments.Variant{Cores: c}, nil)
			if err != nil {
				t.Fatalf("%s/%d: runner: %v", in.name, c, err)
			}
			rseq, err := runner.SeqCycles(in.kernel)
			if err != nil {
				t.Fatalf("%s/%d: runner baseline: %v", in.name, c, err)
			}

			req := in.req
			req.Cores = c
			code, run, errMsg := postRun(t, runTS, req)
			if code != 200 {
				t.Fatalf("%s/%d: /v1/run: %d %s", in.name, c, code, errMsg)
			}

			var b *RunResponse
			for _, item := range batch { // lines stream in completion order
				if item.Index == i {
					b = item.Result
				}
			}
			if b == nil {
				t.Fatalf("%s/%d: batch item %d missing or failed", in.name, c, i)
			}
			var pt *machspace.PointResult
			for j := range surf.Points {
				if surf.Points[j].Point.Cores == c {
					pt = &surf.Points[j]
				}
			}
			if pt == nil || !pt.OK() {
				t.Fatalf("%s/%d: frontier point missing or rejected: %+v", in.name, c, pt)
			}

			for _, got := range []struct {
				entry string
				cy    [2]int64
			}{
				{"experiments.Runner", [2]int64{rres.Cycles, rseq}},
				{"/v1/run", [2]int64{run.Cycles, run.SeqCycles}},
				{"/v1/batch", [2]int64{b.Cycles, b.SeqCycles}},
				{"/v1/frontier", [2]int64{pt.Cycles, pt.SeqCycles}},
			} {
				if got.cy != want {
					t.Errorf("%s/%d: %s reports %d/%d cycles (parallel/sequential), core.Compile %d/%d",
						in.name, c, got.entry, got.cy[0], got.cy[1], want[0], want[1])
				}
			}
			if !b.CachedArtifact {
				t.Errorf("%s/%d: batch item missed the artifact the sweep compiled", in.name, c)
			}
		}
	}
}
