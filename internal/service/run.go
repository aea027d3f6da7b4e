// The request handlers: /v1/run (compile + simulate one kernel),
// /v1/kernels (the built-in catalog), and /v1/attribution (the stall
// report, byte-identical to the fgprun golden text).

package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fgp/internal/artcache"
	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/machspace"
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
	opt, ae := s.checkLevers(&req)
	if ae != nil {
		writeError(w, ae)
		return
	}
	s.admit(w, r, time.Duration(req.TimeoutMs)*time.Millisecond, func(ctx context.Context) {
		resp, ae := s.execute(ctx, &req, opt)
		if ae != nil {
			writeError(w, ae)
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

// resolveKernel resolves a request's loop selector — exactly one of a
// built-in kernel name, wire-encoded IR, or fgp source — shared by
// /v1/run, /v1/batch and /v1/frontier. A built-in name resolves to the
// registry kernel, whose digest is computed once per process; IR and
// source wrap the decoded loop.
func (s *Server) resolveKernel(kernel string, irRaw json.RawMessage, source string) (*kernels.Kernel, *apiError) {
	selected := 0
	for _, set := range []bool{kernel != "", len(irRaw) > 0, source != ""} {
		if set {
			selected++
		}
	}
	if selected != 1 {
		return nil, s.fail(http.StatusBadRequest, "request must select exactly one of kernel, ir or source")
	}
	switch {
	case kernel != "":
		k, err := kernels.ByName(kernel)
		if err != nil {
			return nil, s.fail(http.StatusNotFound, "%v", err)
		}
		return k, nil
	case len(irRaw) > 0:
		loop, err := ir.UnmarshalLoop(irRaw)
		if err != nil {
			return nil, s.fail(http.StatusBadRequest, "ir: %v", err)
		}
		return wrapLoop(loop), nil
	default:
		loop, err := frontend.ParseWithLimits([]byte(source), sourceLimits)
		if err != nil {
			ae := s.fail(http.StatusBadRequest, "source: %v", err)
			var fe *frontend.Error
			if errors.As(err, &fe) {
				ae.body.SourceDiagnostics = fe.Diags
			}
			return nil, ae
		}
		return wrapLoop(loop), nil
	}
}

// wrapLoop makes a posted loop a kernel the runner can address.
func wrapLoop(l *ir.Loop) *kernels.Kernel {
	return kernels.Wrap(l.Name, func() *ir.Loop { return l })
}

// Server-side partition-search parameters. Fixed so a searched artifact is
// a pure function of its content address: every replica (and the on-disk
// store) computes byte-identical partitions for the same request.
const (
	serverSearchSeed   = 1
	serverSearchBudget = 48
)

// checkLevers checks every lever of a run request — the engine, the
// machine, the compile options and the trace format — before the request
// takes an admission slot, so a typo costs neither a slot nor a compile.
// It returns the compile options the levers select; their Machine carries
// the effective queue length and transfer latency.
func (s *Server) checkLevers(req *RunRequest) (core.Options, *apiError) {
	bad := func(format string, args ...any) (core.Options, *apiError) {
		return core.Options{}, s.fail(http.StatusBadRequest, format, args...)
	}
	if err := sim.CheckEngine(req.Engine); err != nil {
		return bad("%v", err)
	}
	cores := cmp.Or(req.Cores, 4)
	q, tl := req.QueueLen, req.TransferLatency
	switch {
	case cores < 1 || cores > machspace.MaxCores:
		return bad("cores must be in [1, %d]", machspace.MaxCores)
	case q != nil && (*q < 0 || *q > sim.MaxQueueLen):
		return bad("queue_len must be in [1, %d] (0 = default)", sim.MaxQueueLen)
	case tl != nil && (*tl < 0 || *tl > machspace.MaxLatency):
		return bad("transfer_latency must be in [0, %d]", machspace.MaxLatency)
	case req.NormalizeOps < 0 || req.NormalizeOps > 64:
		return bad("normalize_ops must be in [0, 64]")
	}
	if err := core.CheckPartitioner(req.Partitioner); err != nil {
		return bad("%v", err)
	}
	if req.Trace != "" {
		if err := obs.CheckTraceFormat(req.Trace); err != nil {
			return bad("%v", err)
		}
	}

	// Unset, the legacy `queue_len: 0` spelling, and an explicit paper
	// default are one machine, while `transfer_latency: 0` is its own.
	mc := sim.DefaultConfig(cores)
	if q != nil && *q != 0 {
		mc.QueueLen = *q
	}
	if tl != nil {
		mc.TransferLatency = *tl
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
	return opt, nil
}

// execute runs one admitted request whose levers checkLevers turned into
// opt: resolve the kernel, resolve the sequential baseline and the
// artifact through the server's runner (memory tier, then disk store, then
// a real compile), simulate under the request context, and build the
// response. It never writes to the connection.
func (s *Server) execute(ctx context.Context, req *RunRequest, opt core.Options) (resp *RunResponse, ae *apiError) {
	// Recover boundary: compiler and simulator internals assume validated
	// input and panic otherwise. A malformed request must cost the client a
	// 400, never the worker goroutine (cache fills have their own boundary
	// in internal/artcache; this one covers everything else in the handler).
	defer func() {
		if r := recover(); r != nil {
			resp, ae = nil, s.fail(http.StatusBadRequest, "internal panic (malformed input reached the pipeline): %v", r)
		}
	}()

	k, ae := s.resolveKernel(req.Kernel, req.IR, req.Source)
	if ae != nil {
		return nil, ae
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
	cfg.TransferLatency = opt.Machine.TransferLatency
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
		Cores:             opt.Cores,
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
				return nil, s.fail(http.StatusBadRequest, "%v", err)
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
		return &apiError{status: statusClientClosedRequest, body: errorBody{Error: stage + ": canceled"}}
	case errors.Is(err, context.DeadlineExceeded):
		s.met.canceled.Add(1)
		return &apiError{status: http.StatusGatewayTimeout, body: errorBody{Error: stage + ": deadline exceeded"}}
	case errors.As(err, &ve):
		ae := s.fail(http.StatusUnprocessableEntity, "%s: %v", stage, err)
		ae.body.Diagnostics = ve.Diags
		return ae
	case errors.As(err, &pe):
		return s.fail(http.StatusBadRequest, "%s: %v", stage, pe)
	case errors.Is(err, sim.ErrDeadlock), core.IsTrap(err):
		return s.fail(http.StatusUnprocessableEntity, "%s: %v", stage, err)
	default:
		return s.fail(http.StatusInternalServerError, "%s: %v", stage, err)
	}
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
//
// Like the POST endpoints it checks everything before admission: a cores
// list of at most machspace.MaxCores entries, each in [1,
// machspace.MaxCores], and the kernel name. The rows resolve and simulate
// under the request's deadline.
func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("kernel")
	if name == "" {
		writeError(w, s.fail(http.StatusBadRequest, "missing kernel parameter"))
		return
	}
	coresParam := r.URL.Query().Get("cores")
	if coresParam == "" {
		coresParam = "4"
	}
	fields := strings.Split(coresParam, ",")
	var coreCounts []int
	for _, f := range fields {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 || n > machspace.MaxCores || len(fields) > machspace.MaxCores {
			writeError(w, s.fail(http.StatusBadRequest, "cores must be a comma list of at most %d ints in [1, %d]",
				machspace.MaxCores, machspace.MaxCores))
			return
		}
		coreCounts = append(coreCounts, n)
	}
	if _, err := kernels.ByName(name); err != nil {
		writeError(w, s.fail(http.StatusNotFound, "%v", err))
		return
	}
	s.admit(w, r, 0, func(ctx context.Context) {
		rows, err := experiments.Attribution(ctx, s.run, name, coreCounts)
		if err != nil {
			writeError(w, s.runError("attribution", err))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, experiments.FormatAttribution(rows))
	})
}
