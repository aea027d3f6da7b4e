// The /v1/frontier endpoint: sweep the machine design space for one loop
// and answer with the Pareto frontier of speedup versus hardware cost —
// or, in inverse-query mode (target_speedup), the minimal configuration
// that reaches a target.
//
// A swept surface is expensive (a budgeted grid of full compile-and-
// simulate runs), so it is content-addressed like an artifact: sha256 over
// the normalized grid, the partitioner, and the loop's ir.Digest, then
// cached in the server runner's cache ("srf" kind), with the on-disk store
// underneath. Repeating a query, or asking a different question of the
// same surface (another target_speedup), costs zero compiles and zero
// simulations; a restarted daemon sharing the store directory answers from
// disk. The sweep itself resolves its artifacts and baselines through that
// same runner, so a later /v1/run of a swept point compiles nothing.

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fgp/internal/artcache"
	"fgp/internal/core"
	"fgp/internal/machspace"
)

// FrontierRequest is the /v1/frontier body. The loop selector works
// exactly like /v1/run: exactly one of Kernel, IR, or Source.
type FrontierRequest struct {
	Kernel string          `json:"kernel,omitempty"`
	IR     json.RawMessage `json:"ir,omitempty"`
	Source string          `json:"source,omitempty"`

	// Grid is the machine-space grid to sweep; absent axes are filled with
	// the paper defaults. Omitting the grid sweeps machspace.DefaultGrid
	// (queue capacity x transfer latency x enqueue cost at 4 cores).
	Grid *machspace.Grid `json:"grid,omitempty"`
	// TargetSpeedup, when > 0, turns the query inverse: answer with the
	// cheapest configuration whose speedup meets the target, or a
	// structured 404 naming the best the surface reaches.
	TargetSpeedup float64 `json:"target_speedup,omitempty"`
	// Partitioner selects the partition selector for every swept point
	// (same lever and spelling rules as /v1/run).
	Partitioner string `json:"partitioner,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request budget.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// FrontierResponse is the /v1/frontier result.
type FrontierResponse struct {
	Kernel string         `json:"kernel"`
	Grid   machspace.Grid `json:"grid"`
	// Points and Rejected count the swept grid: Rejected cells carried a
	// machine the pipeline refused (structured rejection in the surface)
	// and are excluded from the frontier.
	Points   int `json:"points"`
	Rejected int `json:"rejected"`
	// SurfaceAddress is the surface's content address; CachedSurface
	// reports whether this request was served from the cache (memory or
	// disk) rather than paying for the sweep.
	SurfaceAddress string `json:"surface_address"`
	CachedSurface  bool   `json:"cached_surface"`
	// Frontier is the Pareto set: hardware cost ascending, speedup
	// strictly ascending along it.
	Frontier []machspace.PointResult `json:"frontier"`
	// Minimal is the inverse-query answer (only with target_speedup).
	Minimal *machspace.PointResult `json:"minimal,omitempty"`
}

// FrontierMiss is the structured 404 body for an unreachable
// target_speedup: the target, the best the surface reaches, and where.
type FrontierMiss struct {
	Error         string                 `json:"error"`
	TargetSpeedup float64                `json:"target_speedup"`
	BestSpeedup   float64                `json:"best_speedup"`
	Best          *machspace.PointResult `json:"best,omitempty"`
}

// surfaceAddress content-addresses a swept surface. The grid is
// normalized before hashing, so two spellings of one sweep — axes listed
// or defaulted — share an address; the version tag isolates the encoding
// from future surface-shape changes.
func surfaceAddress(digest [32]byte, partitioner string, g machspace.Grid) string {
	return artcache.Address(digest, struct {
		V           string         `json:"v"`
		Partitioner string         `json:"partitioner"`
		Grid        machspace.Grid `json:"grid"`
	}{"frontier1", partitioner, g})
}

// surfaceKind caches swept surfaces, carried through the on-disk store as
// JSON.
var surfaceKind = &artcache.Kind{
	Name:   "srf",
	Encode: func(v any) ([]byte, error) { return json.Marshal(v.(*machspace.Surface)) },
	Decode: func(data []byte) (any, error) {
		var s machspace.Surface
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, err
		}
		return &s, nil
	},
}

// handleFrontierGet serves the query-parameter spelling:
// GET /v1/frontier?kernel=NAME[&target_speedup=2.0][&partitioner=search].
// It sweeps the default grid; custom grids need the POST body.
func (s *Server) handleFrontierGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := FrontierRequest{
		Kernel:      q.Get("kernel"),
		Partitioner: q.Get("partitioner"),
	}
	if req.Kernel == "" {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "missing kernel parameter")
		return
	}
	if ts := q.Get("target_speedup"); ts != "" {
		v, err := strconv.ParseFloat(ts, 64)
		if err != nil {
			s.met.errors.Add(1)
			httpError(w, http.StatusBadRequest, "target_speedup must be a number")
			return
		}
		req.TargetSpeedup = v
	}
	s.serveFrontier(w, r, &req)
}

func (s *Server) handleFrontierPost(w http.ResponseWriter, r *http.Request) {
	var req FrontierRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	s.serveFrontier(w, r, &req)
}

// serveFrontier validates the query, then sweeps (or re-reads) the surface
// under admission control and renders the frontier.
func (s *Server) serveFrontier(w http.ResponseWriter, r *http.Request, req *FrontierRequest) {
	k, ae := s.resolveKernel(req.Kernel, req.IR, req.Source)
	if ae != nil {
		writeJSON(w, ae.status, ae.body)
		return
	}

	// Everything below rejects before admission: a malformed grid must
	// cost a 400, not a worker slot.
	grid := machspace.DefaultGrid()
	if req.Grid != nil {
		grid = *req.Grid
	}
	grid, err := grid.Normalize(s.cfg.MaxCores)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n := grid.Size(); n > machspace.DefaultBudget {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest,
			(&machspace.BudgetError{Points: n, Budget: machspace.DefaultBudget}).Error())
		return
	}
	if req.TargetSpeedup < 0 {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "target_speedup must be >= 0")
		return
	}
	if err := checkPartitioner(req.Partitioner); err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	partitioner := req.Partitioner
	if partitioner == core.PartitionerHeuristic {
		partitioner = "" // one content address for both spellings of the default
	}

	addr := surfaceAddress(k.Digest(), partitioner, grid)

	s.admit(w, r, time.Duration(req.TimeoutMs)*time.Millisecond, func(ctx context.Context) {
		// The sweep fill runs detached, bounded by the server budget: other
		// requests may be waiting on the same surface. swept records
		// whether this request actually paid for the sweep: a memory hit
		// skips the fill entirely, a disk hit runs the fill but not this
		// closure. Only this request's own closure writes it, so there is
		// no race with concurrent fillers.
		swept := false
		val, hit, err := s.run.Cache().Do(ctx, surfaceKind, addr, func(fctx context.Context) (any, error) {
			swept = true
			return machspace.Sweep(fctx, s.run, k, grid, machspace.Options{
				Workers:      1, // the request holds one worker slot
				MaxCores:     s.cfg.MaxCores,
				Partitioner:  partitioner,
				SearchSeed:   serverSearchSeed,
				SearchBudget: serverSearchBudget,
			})
		})
		if err != nil {
			s.failRun(w, "sweep", err)
			return
		}
		cached := hit || !swept // memory hit, or the disk tier served the fill
		surf := val.(*machspace.Surface)

		resp := FrontierResponse{
			Kernel:         surf.Kernel,
			Grid:           surf.Grid,
			Points:         len(surf.Points),
			Rejected:       surf.Rejected(),
			SurfaceAddress: addr,
			CachedSurface:  cached,
			Frontier:       surf.Pareto(),
		}
		if req.TargetSpeedup > 0 {
			pt, ok := surf.Minimal(req.TargetSpeedup)
			if !ok {
				miss := FrontierMiss{
					Error: fmt.Sprintf("no swept configuration reaches speedup %.2f",
						req.TargetSpeedup),
					TargetSpeedup: req.TargetSpeedup,
				}
				if best, ok := surf.Best(); ok {
					miss.BestSpeedup = best.Speedup
					miss.Best = &best
				}
				writeJSON(w, http.StatusNotFound, miss)
				return
			}
			resp.Minimal = &pt
		}
		writeJSON(w, http.StatusOK, resp)
	})
}
