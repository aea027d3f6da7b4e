// The request handlers: /v1/run (compile + simulate one kernel),
// /v1/kernels (the built-in catalog), and /v1/attribution (the stall
// report, byte-identical to the fgprun golden text).

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"fgp/internal/artcache"
	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
	"fgp/internal/verify"
)

// RunRequest is the /v1/run body. Exactly one of Kernel (a built-in
// evaluation kernel name, see /v1/kernels), IR (a loop in the
// ir.MarshalLoop wire encoding), or Source (an fgp source program, see
// internal/frontend) selects what to compile.
type RunRequest struct {
	Kernel string          `json:"kernel,omitempty"`
	IR     json.RawMessage `json:"ir,omitempty"`
	Source string          `json:"source,omitempty"`

	// Pipeline and machine configuration (zero/absent = paper defaults).
	Cores int `json:"cores,omitempty"`
	// QueueLen and TransferLatency are pointers so presence survives
	// decoding: transfer latency 0 is a real machine (instant transfers)
	// and must be distinguishable from "not sent". An absent field means
	// the paper default; so does `queue_len: 0` (0 is not a legal literal
	// capacity, and the legacy encoding used it as "default"), and so does
	// sending the default value explicitly — all three spellings share one
	// canonical content address.
	QueueLen        *int   `json:"queue_len,omitempty"`
	TransferLatency *int64 `json:"transfer_latency,omitempty"`
	Speculate       bool   `json:"speculate,omitempty"`
	NormalizeOps    int    `json:"normalize_ops,omitempty"`
	Schedule        bool   `json:"schedule,omitempty"`
	// Partitioner selects the partition selector: "" or "heuristic" (the
	// paper's greedy merge) or "search" (the internal/search refinement,
	// run server-side with a fixed seed and budget so the artifact is
	// content-addressable and byte-identical across replicas).
	Partitioner string `json:"partitioner,omitempty"`

	// Engine selects the execution engine by name (see sim.Engines; "" is
	// the threaded default). Both engines return bit-identical results —
	// the lever trades host time only. An unknown name is a 400.
	Engine string `json:"engine,omitempty"`
	// Attribution includes the stall-attribution report text.
	Attribution bool `json:"attribution,omitempty"`
	// Trace includes a rendered trace: "perfetto", "text", or "report".
	Trace string `json:"trace,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request budget.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// RunResponse is the /v1/run result.
type RunResponse struct {
	Kernel    string  `json:"kernel"`
	Cores     int     `json:"cores"`
	Cycles    int64   `json:"cycles"`
	SeqCycles int64   `json:"seq_cycles"`
	Speedup   float64 `json:"speedup"`

	PerCoreCycles     []int64 `json:"per_core_cycles"`
	EnqStalls         []int64 `json:"enq_stalls"`
	DeqStalls         []int64 `json:"deq_stalls"`
	Transfers         int64   `json:"transfers"`
	PairsUsed         int     `json:"pairs_used"`
	LoadHits          int64   `json:"load_hits"`
	LoadMisses        int64   `json:"load_misses"`
	MemPortBusyCycles int64   `json:"mem_port_busy_cycles"`

	// CachedArtifact reports whether the compiled artifact was served from
	// the content-addressed cache (the simulation always runs fresh).
	CachedArtifact bool `json:"cached_artifact"`
	// ArtifactAddress is the artifact's content address: sha256 over the
	// canonical compile options (core.CanonicalOptions) and the loop's
	// ir.Digest — the same address /v1/frontier sweeps and
	// /v1/attribution resolve through. Requests that spell one compile
	// differently share it: omitting queue_len or sending the paper
	// default, "heuristic" or no partitioner. Transfer latency is a
	// run-time lever applied at simulation time, so heuristic requests at
	// any transfer_latency share one address; under the search partitioner
	// it is part of the address, because the search scores partitions on
	// the machine it compiles for.
	ArtifactAddress string  `json:"artifact_address"`
	CompileMs       float64 `json:"compile_ms"`
	SimMs           float64 `json:"sim_ms"`

	Attribution string          `json:"attribution,omitempty"`
	Trace       json.RawMessage `json:"trace,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if ae := s.checkEngine(req.Engine); ae != nil {
		writeJSON(w, ae.status, ae.body)
		return
	}
	s.admit(w, r, time.Duration(req.TimeoutMs)*time.Millisecond, func(ctx context.Context) {
		resp, ae := s.execute(ctx, &req)
		if ae != nil {
			writeJSON(w, ae.status, ae.body)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// sourceLimits bounds what a source program in a request may cost the
// parser. The body-size cap already bounds raw bytes; these bound the
// amplification past it — recursion depth (goroutine stacks) and node
// count (array splats expand far beyond their source text). Rejections are
// 400s with positioned diagnostics, never an OOM or a stack overflow.
var sourceLimits = frontend.Limits{MaxDepth: 64, MaxNodes: 200_000, MaxDiags: 20}

// apiError is a request failure with its HTTP rendering decided: execute
// returns it instead of writing, so /v1/run can send it as the response
// status while /v1/batch folds it into one NDJSON item line.
type apiError struct {
	status int
	body   errorBody
}

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, body: errorBody{Error: fmt.Sprintf(format, args...)}}
}

// checkEngine rejects an unknown simulation engine name as a 400 that
// lists the accepted ones, so a typo never costs an admission slot or a
// compile. "" selects the default engine.
func (s *Server) checkEngine(name string) *apiError {
	if name == "" || slices.Contains(sim.Engines(), name) {
		return nil
	}
	s.met.errors.Add(1)
	return apiErrorf(http.StatusBadRequest, "unknown engine %q (have %v)", name, sim.Engines())
}

// resolveKernel resolves a request's loop selector — exactly one of a
// built-in kernel name, wire-encoded IR, or fgp source — shared by
// /v1/run, /v1/batch and /v1/frontier. A built-in name resolves to the
// registry kernel, whose digest is computed once per process; IR and
// source wrap the decoded loop. Failures count toward the error metric and
// carry their HTTP rendering.
func (s *Server) resolveKernel(kernel string, irRaw json.RawMessage, source string) (*kernels.Kernel, *apiError) {
	fail := func(status int, msg string) (*kernels.Kernel, *apiError) {
		s.met.errors.Add(1)
		return nil, apiErrorf(status, "%s", msg)
	}
	selected := 0
	for _, set := range []bool{kernel != "", len(irRaw) > 0, source != ""} {
		if set {
			selected++
		}
	}
	if selected != 1 {
		return fail(http.StatusBadRequest, "request must select exactly one of kernel, ir or source")
	}
	switch {
	case kernel != "":
		k, err := kernels.ByName(kernel)
		if err != nil {
			return fail(http.StatusNotFound, err.Error())
		}
		return k, nil
	case len(irRaw) > 0:
		loop, err := ir.UnmarshalLoop(irRaw)
		if err != nil {
			return fail(http.StatusBadRequest, "ir: "+err.Error())
		}
		return wrapLoop(loop), nil
	default:
		loop, err := frontend.ParseWithLimits([]byte(source), sourceLimits)
		if err != nil {
			s.met.errors.Add(1)
			var fe *frontend.Error
			if errors.As(err, &fe) {
				return nil, &apiError{status: http.StatusBadRequest, body: errorBody{
					Error:             boundMsg("source: " + err.Error()),
					SourceDiagnostics: fe.Diags,
				}}
			}
			return nil, apiErrorf(http.StatusBadRequest, "%s", boundMsg("source: "+err.Error()))
		}
		return wrapLoop(loop), nil
	}
}

// wrapLoop makes a posted loop a kernel the runner can address.
func wrapLoop(l *ir.Loop) *kernels.Kernel {
	return kernels.Wrap(l.Name, func() *ir.Loop { return l })
}

// checkPartitioner validates a partitioner lever: "" and "heuristic" are
// the paper's greedy merge, "search" the refinement.
func checkPartitioner(p string) error {
	if p != "" && p != core.PartitionerHeuristic && p != core.PartitionerSearch {
		return fmt.Errorf("partitioner must be one of %v", core.Partitioners())
	}
	return nil
}

// Server-side partition-search parameters. Fixed so a searched artifact is
// a pure function of its content address: every replica (and the on-disk
// store) computes byte-identical partitions for the same request.
const (
	serverSearchSeed   = 1
	serverSearchBudget = 48
)

// execute runs one admitted request: resolve the kernel, resolve the
// sequential baseline and the artifact through the server's runner (memory
// tier, then disk store, then a real compile), simulate under the request
// context, and build the response. It never writes to the connection.
func (s *Server) execute(ctx context.Context, req *RunRequest) (resp *RunResponse, ae *apiError) {
	// Recover boundary: compiler and simulator internals assume validated
	// input and panic otherwise. A malformed request must cost the client a
	// 400, never the worker goroutine (cache fills have their own boundary
	// in internal/artcache; this one covers everything else in the handler).
	defer func() {
		if r := recover(); r != nil {
			s.met.errors.Add(1)
			resp, ae = nil, apiErrorf(http.StatusBadRequest,
				"%s", boundMsg(fmt.Sprintf("internal panic (malformed input reached the pipeline): %v", r)))
		}
	}()
	fail := func(status int, msg string) (*RunResponse, *apiError) {
		s.met.errors.Add(1)
		return nil, apiErrorf(status, "%s", msg)
	}

	k, ae := s.resolveKernel(req.Kernel, req.IR, req.Source)
	if ae != nil {
		return nil, ae
	}

	// Bound the machine parameters.
	cores := req.Cores
	if cores == 0 {
		cores = 4
	}
	if cores < 1 || cores > s.cfg.MaxCores {
		return fail(http.StatusBadRequest, fmt.Sprintf("cores must be in [1, %d]", s.cfg.MaxCores))
	}
	// Resolve the machine levers to their effective values: unset, the
	// legacy `queue_len: 0` spelling, and an explicit paper default are
	// one machine, while `transfer_latency: 0` is its own.
	mc := sim.DefaultConfig(cores)
	if req.QueueLen != nil {
		q := *req.QueueLen
		if q < 0 || q > 1<<12 {
			return fail(http.StatusBadRequest, "queue_len must be in [1, 4096] (0 = default)")
		}
		if q != 0 {
			mc.QueueLen = q
		}
	}
	if req.TransferLatency != nil {
		tl := *req.TransferLatency
		if tl < 0 || tl > 1<<20 {
			return fail(http.StatusBadRequest, "transfer_latency must be in [0, 1048576]")
		}
		mc.TransferLatency = tl
	}
	if req.NormalizeOps < 0 || req.NormalizeOps > 64 {
		return fail(http.StatusBadRequest, "normalize_ops must be in [0, 64]")
	}
	if err := checkPartitioner(req.Partitioner); err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}

	opt := core.DefaultOptions(cores)
	opt.Speculate = req.Speculate
	opt.NormalizeOps = req.NormalizeOps
	opt.Schedule = req.Schedule
	opt.Machine = &mc
	if req.Partitioner == core.PartitionerSearch {
		// Fixed server-side search parameters: the artifact must be a pure
		// function of its content address, so the seed and budget are not
		// client levers.
		opt.Partitioner = core.PartitionerSearch
		opt.SearchSeed = serverSearchSeed
		opt.SearchBudget = serverSearchBudget
	}

	compileStart := time.Now()
	seqCycles, _, err := s.run.SeqCyclesContext(ctx, k, sim.DefaultConfig(1))
	if err != nil {
		return nil, s.runError("sequential baseline", err)
	}
	art, addr, hit, err := s.run.ArtifactContext(ctx, k, opt)
	if err != nil {
		return nil, s.runError("compile", err)
	}
	compileMs := float64(time.Since(compileStart)) / float64(time.Millisecond)

	// Simulate under the request context: a client disconnect or deadline
	// aborts within one cancellation stride (sim.RunContext).
	cfg := art.MachineConfig()
	cfg.TransferLatency = mc.TransferLatency
	cfg.Engine = req.Engine
	var rec *obs.Recorder
	if req.Attribution || req.Trace != "" {
		// A text trace prints retire lines only, so on its own it records
		// only the retires.
		rec = &obs.Recorder{RetiresOnly: req.Trace == "text" && !req.Attribution}
		cfg.Sink = rec
	}
	simStart := time.Now()
	res, err := art.RunContext(ctx, cfg)
	if err != nil {
		return nil, s.runError("simulate", err)
	}
	simMs := float64(time.Since(simStart)) / float64(time.Millisecond)

	resp = &RunResponse{
		Kernel:            k.Name,
		Cores:             cores,
		Cycles:            res.Cycles,
		SeqCycles:         seqCycles,
		Speedup:           float64(seqCycles) / float64(res.Cycles),
		PerCoreCycles:     res.PerCoreCycles,
		EnqStalls:         res.EnqStalls,
		DeqStalls:         res.DeqStalls,
		Transfers:         res.Transfers,
		PairsUsed:         res.PairsUsed,
		LoadHits:          res.LoadHits,
		LoadMisses:        res.LoadMisses,
		MemPortBusyCycles: res.MemPortBusyCycles,
		CachedArtifact:    hit,
		ArtifactAddress:   addr,
		CompileMs:         compileMs,
		SimMs:             simMs,
	}
	if rec != nil {
		// The simulator delivers rec's events in canonical order.
		if req.Attribution {
			resp.Attribution = obs.BuildReport(rec.Meta, rec.Events).Format()
		}
		if req.Trace != "" {
			data, err := obs.RenderTrace(req.Trace, rec.Meta, rec.Events)
			if err != nil {
				return fail(http.StatusBadRequest, err.Error())
			}
			if req.Trace == "perfetto" {
				resp.Trace = data // already JSON
			} else {
				resp.Trace, _ = json.Marshal(string(data))
			}
		}
	}
	return resp, nil
}

// maxErrorBytes bounds the detail text of any error response. Simulator
// deadlock errors carry a full multi-line machine-state dump; the response
// keeps enough to diagnose and says how much it dropped.
const maxErrorBytes = 2048

func boundMsg(msg string) string {
	if len(msg) <= maxErrorBytes {
		return msg
	}
	return fmt.Sprintf("%s... (%d bytes truncated)", msg[:maxErrorBytes], len(msg)-maxErrorBytes)
}

// runError maps a compile/simulate error to its HTTP rendering:
// cancellation becomes 499 (the client is gone), a blown deadline 504.
// Rejections that are the kernel's own fault — a static-verifier rejection,
// a deadlock, a semantic trap like division by zero — are 422 (the request
// was well-formed, the program is not runnable), with the verifier's
// structured diagnostics attached when it has them. A panic caught at the
// recover boundary is a 400 (bad input reached code that assumed validated
// input). Only genuine infrastructure failures remain 500.
func (s *Server) runError(stage string, err error) *apiError {
	var ve *verify.Error
	var pe *artcache.PanicError
	switch {
	case errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
		return apiErrorf(statusClientClosedRequest, "%s: canceled", stage)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.canceled.Add(1)
		return apiErrorf(http.StatusGatewayTimeout, "%s: deadline exceeded", stage)
	case errors.As(err, &ve):
		s.met.errors.Add(1)
		return &apiError{status: http.StatusUnprocessableEntity, body: errorBody{
			Error:       boundMsg(stage + ": " + err.Error()),
			Diagnostics: ve.Diags,
		}}
	case errors.As(err, &pe):
		s.met.errors.Add(1)
		return apiErrorf(http.StatusBadRequest, "%s", boundMsg(stage+": "+pe.Error()))
	case errors.Is(err, sim.ErrDeadlock), core.IsTrap(err):
		s.met.errors.Add(1)
		return apiErrorf(http.StatusUnprocessableEntity, "%s", boundMsg(stage+": "+err.Error()))
	default:
		s.met.errors.Add(1)
		return apiErrorf(http.StatusInternalServerError, "%s", boundMsg(stage+": "+err.Error()))
	}
}

// failRun renders runError's mapping straight to the connection (the
// single-request handlers' path).
func (s *Server) failRun(w http.ResponseWriter, stage string, err error) {
	ae := s.runError(stage, err)
	writeJSON(w, ae.status, ae.body)
}

// KernelInfo is one row of /v1/kernels.
type KernelInfo struct {
	Name         string  `json:"name"`
	App          string  `json:"app"`
	PctTime      float64 `json:"pct_time"`
	PaperSpeedup float64 `json:"paper_speedup"`
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	ks := kernels.All()
	out := make([]KernelInfo, len(ks))
	for i, k := range ks {
		out[i] = KernelInfo{Name: k.Name, App: k.App, PctTime: k.PctTime, PaperSpeedup: k.PaperSpeedup}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAttribution serves GET /v1/attribution?kernel=NAME&cores=1,3 as
// text/plain — the exact bytes of experiments.FormatAttribution, i.e. what
// `fgprun -trace-format report` prints and the golden file pins.
func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("kernel")
	if name == "" {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "missing kernel parameter")
		return
	}
	coresParam := r.URL.Query().Get("cores")
	if coresParam == "" {
		coresParam = "4"
	}
	var coreCounts []int
	for _, f := range strings.Split(coresParam, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 || n > s.cfg.MaxCores {
			s.met.errors.Add(1)
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("cores must be a comma list of ints in [1, %d]", s.cfg.MaxCores))
			return
		}
		coreCounts = append(coreCounts, n)
	}
	s.admit(w, r, 0, func(ctx context.Context) {
		rows, err := experiments.Attribution(s.run, name, coreCounts)
		if err != nil {
			if _, nf := kernels.ByName(name); nf != nil {
				s.met.errors.Add(1)
				httpError(w, http.StatusNotFound, err.Error())
				return
			}
			s.failRun(w, "attribution", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, experiments.FormatAttribution(rows))
	})
}
