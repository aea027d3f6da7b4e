// Package service implements fgpd, the resident compile-and-simulate
// daemon: the paper's runtime-thread-management component (Section IV.H)
// grown into a long-lived HTTP/JSON service. Clients submit IR kernels (or
// name a built-in evaluation kernel); the server runs the full pipeline —
// normalize, speculate, lower, partition, outline — simulates the result on
// the requested machine, and returns cycles, speedup over the sequential
// baseline, stall attribution, and optionally a Perfetto trace.
//
// Three production concerns shape the package:
//
//   - Caching: one experiments.Runner resolves every artifact, profile and
//     sequential baseline the server needs — for /v1/run, /v1/batch items,
//     /v1/frontier sweeps and /v1/attribution alike — through one
//     content-addressed singleflight cache (internal/artcache). An entry's
//     address is the canonical compile options (core.CanonicalOptions)
//     plus the loop's ir.Digest, so serving many simulation configurations
//     of one kernel compiles it once, and a /v1/run of a point a sweep
//     already compiled compiles nothing. Transfer latency is applied at
//     simulation time; it is part of the address only under the search
//     partitioner, which scores partitions on the machine it compiles for.
//     /v1/frontier sweeps also resolve each point's result through the
//     runner's simulation memo; /v1/run and /v1/batch simulate every
//     request.
//   - Admission control: a bounded worker pool executes requests, a
//     queue-depth limit sheds load with 429 before work piles up, every
//     request carries a deadline, and SIGTERM drains gracefully.
//   - Cancellation: a request gives up when the client disconnects or its
//     deadline passes, whatever it is waiting on. A compile it started
//     runs on, detached and bounded by the server budget, because other
//     requests may be waiting on it; it keeps the request's worker slot
//     until it ends, so the pool bounds fills as well as requests. A
//     simulation runs under the request context and aborts within one
//     cancellation stride (sim.RunContext).
//
// A fourth concern arrived with scale: persistence. When Config.StoreDir
// is set, compiled artifacts, sequential baselines and swept surfaces are
// written through to a content-addressed on-disk store
// (internal/service/store) layered under the in-memory cache, so a
// restarted daemon — or a horizontal replica sharing the directory —
// warm-starts instead of recompiling.
//
// Endpoints: POST /v1/run, POST /v1/batch, GET|POST /v1/frontier,
// GET /v1/kernels, GET /v1/attribution, GET /healthz, GET /metrics.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/artcache"
	"fgp/internal/experiments"
	"fgp/internal/frontend"
	"fgp/internal/service/store"
	"fgp/internal/verify"
)

// Config parameterizes the server.
type Config struct {
	// Workers bounds concurrently executing requests (compiles and
	// simulations). 0 means one per available CPU.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it the
	// server sheds load with 429 immediately. 0 means 64.
	QueueDepth int
	// Timeout is the per-request wall-clock budget, compile plus simulate.
	// Requests may tighten it per call (timeout_ms) but never exceed it.
	// 0 means 60s.
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (IR kernels carry their array
	// data inline). 0 means 32 MiB.
	MaxBodyBytes int64
	// MaxCores bounds the simulated core count a request may ask for (the
	// queue fabric is O(cores²)). 0 means 16.
	MaxCores int
	// MaxBatchItems bounds how many items one /v1/batch request may carry.
	// 0 means 256.
	MaxBatchItems int
	// BatchParallelism bounds how many items of one batch execute
	// concurrently (the batch as a whole holds a single admission ticket).
	// 0 means Workers.
	BatchParallelism int
	// StoreDir, when non-empty, enables the on-disk artifact store: compile
	// fills are written through and later misses in the in-memory cache are
	// served from disk instead of recompiling.
	StoreDir string
	// StoreMaxBytes bounds the on-disk store's total payload bytes (LRU
	// eviction past it). 0 means store.DefaultMaxBytes.
	StoreMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 16
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = c.Workers
	}
	return c
}

// Server is the daemon. Create with New, serve via Handler, stop by
// draining (Drain) before closing the listener's http.Server.
type Server struct {
	cfg Config
	mux *http.ServeMux

	run  *experiments.Runner // resolves every artifact, profile and baseline
	disk *store.Store        // nil unless Config.StoreDir is set

	sem      chan struct{} // worker slots
	queued   atomic.Int64  // admitted, waiting for a slot
	inflight atomic.Int64  // holding a slot (see admit)
	// drainMu gates admission against Drain: admit registers with wg under
	// the read lock, Drain flips draining under the write lock before
	// waiting, so wg.Add can never race wg.Wait at a zero counter.
	drainMu  sync.RWMutex
	draining atomic.Bool
	wg       sync.WaitGroup // every admitted request and its fills, for Drain

	met metrics
}

// New builds a server. It fails only when Config.StoreDir is set and the
// on-disk store cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.Workers)}
	var disk artcache.Disk // stays a nil interface without a store
	if cfg.StoreDir != "" {
		d, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk, disk = d, d
	}
	// Cache fills are bounded by the server budget: other requests may be
	// waiting on a fill, so it runs detached from any one request.
	s.run = experiments.NewTieredRunner(disk, cfg.Timeout)
	// Attribution already holds a worker slot; don't fan out further.
	s.run.SetWorkers(1)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /v1/attribution", s.handleAttribution)
	s.mux.HandleFunc("GET /v1/frontier", s.handleFrontierGet)
	s.mux.HandleFunc("POST /v1/frontier", s.handleFrontierPost)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server draining (healthz flips to 503 so load balancers
// stop routing) and waits until every admitted request, and every fill one
// left running, has finished, or ctx expires. New work arriving while
// draining is refused with 503.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with %d request(s) in flight: %w",
			s.queued.Load()+s.inflight.Load(), ctx.Err())
	}
}

// admit applies admission control and runs fn on a worker slot with the
// request deadline attached. fn must write the response itself. reqTimeout
// (0 = none) tightens, never extends, the server budget.
//
// The min(server, request) budget starts at admission, not at slot
// acquisition: time spent queued for a worker counts against the deadline.
// (It used to start after the queue wait, which silently extended
// timeout_ms under sustained offered load — a request asking for 50ms
// could sit queued for seconds and still run. Surfaced by fgpload's
// open-loop overload points; pinned by TestQueuedRequestHonorsDeadline.)
func (s *Server) admit(w http.ResponseWriter, r *http.Request, reqTimeout time.Duration, fn func(ctx context.Context)) {
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.met.requests.Add(1)
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.drainMu.RUnlock()
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()

	budget := s.cfg.Timeout
	if reqTimeout > 0 && reqTimeout < budget {
		budget = reqTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		s.wg.Done()
		s.met.canceled.Add(1)
		s.met.lat.observe(time.Since(start))
		if ctx.Err() == context.DeadlineExceeded {
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for a worker")
		} else {
			// The client is gone; nobody reads this status.
			httpError(w, statusClientClosedRequest, "client closed request while queued")
		}
		return
	}
	s.inflight.Add(1)
	// A compile, baseline or sweep this request starts runs detached and
	// carries on when the request gives up on it (internal/artcache). The
	// slot stays taken until every such fill ends, so requests that leave
	// early cannot set off more concurrent fills than there are workers.
	var fills artcache.Fills
	defer func() {
		release := func() {
			s.inflight.Add(-1)
			<-s.sem
			s.wg.Done()
		}
		if fills.Running() {
			go func() {
				fills.Wait()
				release()
			}()
		} else {
			release()
		}
	}()

	fn(artcache.WithFills(ctx, &fills))
	s.met.lat.observe(time.Since(start))
}

// statusClientClosedRequest is nginx's conventional code for a client that
// disconnected before the response; it only shows up in logs and metrics.
const statusClientClosedRequest = 499

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Metrics is the /metrics document.
type Metrics struct {
	Requests   int64 `json:"requests"`
	Rejected   int64 `json:"rejected_429"`
	Canceled   int64 `json:"canceled"`
	Errors     int64 `json:"errors"`
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	InFlight   int64 `json:"inflight"`
	Queued     int64 `json:"queued"`
	Draining   bool  `json:"draining"`
	Cache      struct {
		Entries   int64   `json:"entries"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Abandoned int64   `json:"abandoned"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`
	// Artifacts rolls up where artifact, sequential-baseline and surface
	// lookups — a sweep's own lookups included — were satisfied: the
	// in-memory singleflight tier, the on-disk store, or a genuine compile.
	Artifacts struct {
		MemHits  int64   `json:"mem_hits"`
		DiskHits int64   `json:"disk_hits"`
		Compiles int64   `json:"compiles"`
		HitRate  float64 `json:"hit_rate"` // (mem+disk) / all lookups
	} `json:"artifacts"`
	// Store is the on-disk tier's own counters; absent when no -store-dir.
	Store   *store.Metrics `json:"store,omitempty"`
	Latency struct {
		P50Ms  float64 `json:"p50_ms"`
		P99Ms  float64 `json:"p99_ms"`
		P999Ms float64 `json:"p999_ms"`
		Count  int64   `json:"count"`
		Window int     `json:"window"`
	} `json:"latency"`
}

// Snapshot returns the current metrics document (the /metrics payload).
func (s *Server) Snapshot() Metrics {
	var m Metrics
	m.Requests = s.met.requests.Load()
	m.Rejected = s.met.rejected.Load()
	m.Canceled = s.met.canceled.Load()
	m.Errors = s.met.errors.Load()
	m.Batches = s.met.batches.Load()
	m.BatchItems = s.met.items.Load()
	m.InFlight = s.inflight.Load()
	m.Queued = s.queued.Load()
	m.Draining = s.draining.Load()
	cs := s.run.Cache().Stats()
	m.Cache.Entries = cs.Entries
	m.Cache.Hits = cs.Hits
	m.Cache.Misses = cs.Misses
	m.Cache.Abandoned = cs.Abandoned
	if total := m.Cache.Hits + m.Cache.Misses; total > 0 {
		m.Cache.HitRate = float64(m.Cache.Hits) / float64(total)
	}
	m.Artifacts.MemHits = cs.Hits
	m.Artifacts.DiskHits = cs.DiskHits
	m.Artifacts.Compiles = cs.Fills
	if total := m.Artifacts.MemHits + m.Artifacts.DiskHits + m.Artifacts.Compiles; total > 0 {
		m.Artifacts.HitRate = float64(m.Artifacts.MemHits+m.Artifacts.DiskHits) / float64(total)
	}
	if s.disk != nil {
		sm := s.disk.Snapshot()
		m.Store = &sm
	}
	p50, p99, p999, count, window := s.met.lat.quantiles()
	m.Latency.P50Ms = float64(p50) / float64(time.Millisecond)
	m.Latency.P99Ms = float64(p99) / float64(time.Millisecond)
	m.Latency.P999Ms = float64(p999) / float64(time.Millisecond)
	m.Latency.Count = count
	m.Latency.Window = window
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode left
}

// errorBody is the JSON error envelope every non-2xx response carries.
// Diagnostics is populated on 422s produced by the static pipeline
// verifier: one structured entry per violated invariant (check name, core,
// instruction index, queue, edge). SourceDiagnostics is populated on 400s
// rejecting an fgp source program: one positioned entry (line, column,
// message, snippet) per frontend error.
type errorBody struct {
	Error             string                `json:"error"`
	Diagnostics       []verify.Diagnostic   `json:"diagnostics,omitempty"`
	SourceDiagnostics []frontend.Diagnostic `json:"source_diagnostics,omitempty"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// decodeRequest reads one JSON request object from the body into v: at
// most Config.MaxBodyBytes, no unknown fields, and nothing but whitespace
// after the object. On failure it counts the error, answers 413 or 400,
// and returns false.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	decoded := err == nil
	if decoded {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	s.met.errors.Add(1)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
	case decoded:
		httpError(w, http.StatusBadRequest, "trailing data after request object")
	default:
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
	}
	return false
}
