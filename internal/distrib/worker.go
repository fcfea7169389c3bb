// The worker daemon: the HTTP server side of the shard wire, serving the
// Execute stage to remote coordinators. Like internal/server's Handler it
// is a plain http.Handler over a small route table; unlike the station
// protocol (GET-only, by field constraint) the shard request is a POST —
// the coordinator is a modern process, not a wget on a glacier.
//
// Routes:
//
//	POST /shard    execute a ShardRequest, stream back the partial
//	               summary as the WriteJSON document (409 on fingerprint
//	               drift, 503 at the concurrent-shard bound)
//	GET  /healthz  liveness and load, as JSON
package distrib

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/sweep"
)

// maxRequestBytes bounds a shard request body; grids are axis lists, so
// even million-cell plans stay tiny (cells are enumerated, not listed
// one by one — only the executed indices travel).
const maxRequestBytes = 16 << 20

// Worker serves sweep shards over HTTP.
type Worker struct {
	// MaxShards bounds concurrently executing shard requests; <= 0
	// selects 2. Excess requests get 503 and the coordinator requeues
	// them elsewhere.
	MaxShards int
	// CellWorkers bounds each shard's in-process cell pool; <= 0 selects
	// GOMAXPROCS.
	CellWorkers int
	// Cache, when set, backs every served shard's LocalRunner: cells any
	// coordinator already paid for are served from it, fresh ones
	// populate it. A pool of workers pointed at one shared directory
	// warms one cache together.
	Cache sweep.ResultCache
	// Logf, when set, narrates served shards (one line each).
	Logf func(format string, a ...any)

	mu     sync.Mutex
	active int
	// The last request's plan, keyed by its grid spec + hook set: a
	// coordinator sends many small shards of one grid, and re-enumerating
	// and re-hashing the whole cross-product per request would make a
	// large campaign quadratic in plan size on the worker too.
	planKey string
	plan    []sweep.Cell
	planFP  string
}

// Health is the /healthz document: liveness, load, and which plan the
// worker's one-entry plan cache currently holds — the coordinator quotes
// it when it retires a worker, so "retired after 3 failures" comes with
// the worker's own account of its state.
//
//glacvet:wire
type Health struct {
	Status    string `json:"status"`
	Active    int    `json:"active_shards"`
	MaxShards int    `json:"max_shards"`
	// PlanFP is the fingerprint of the cached plan; empty until the
	// first shard is served.
	PlanFP string `json:"plan_fingerprint,omitempty"`
}

func (w *Worker) logf(format string, a ...any) {
	if w.Logf != nil {
		w.Logf(format, a...)
	}
}

func (w *Worker) maxShards() int {
	if w.MaxShards > 0 {
		return w.MaxShards
	}
	return 2
}

// acquire reserves a shard slot, reporting false at the bound.
func (w *Worker) acquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active >= w.maxShards() {
		return false
	}
	w.active++
	return true
}

func (w *Worker) release() {
	w.mu.Lock()
	w.active--
	w.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	switch strings.TrimSuffix(r.URL.Path, "/") {
	case "/healthz":
		if r.Method != http.MethodGet {
			http.Error(rw, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.mu.Lock()
		h := Health{Status: "ok", Active: w.active, MaxShards: w.maxShards(), PlanFP: w.planFP}
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(rw).Encode(h); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	case "/shard":
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		w.serveShard(rw, r)
	default:
		http.NotFound(rw, r)
	}
}

// serveShard decodes, validates and executes one shard request.
func (w *Worker) serveShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("bad shard request: %v", err), http.StatusBadRequest)
		return
	}
	if req.V != WireVersion {
		http.Error(rw, fmt.Sprintf("shard request version %d, this worker speaks %d", req.V, WireVersion),
			http.StatusBadRequest)
		return
	}
	if !w.acquire() {
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, fmt.Sprintf("worker at capacity (%d shards in flight)", w.maxShards()),
			http.StatusServiceUnavailable)
		return
	}
	// execute frees the slot before any reply is written: a coordinator
	// that sends its next shard the moment it has decoded this reply must
	// find the slot free, not race the handler's return into a 503.
	sum, simulated, status, err := w.execute(req)
	if err != nil {
		http.Error(rw, err.Error(), status)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := sum.WriteJSON(rw); err != nil {
		// The header is gone; all we can do is log and drop the
		// connection so the coordinator sees a failed shard and requeues.
		w.logf("distrib worker: write partial summary: %v", err)
		return
	}
	w.logf("distrib worker: served %d cells (simulated %d) of plan %s", len(req.Indices), simulated, req.Fingerprint)
}

// execute runs a request in the shard slot serveShard acquired and
// releases it on return. It reports the partial summary and how many of
// its cells were simulated rather than served from the cache, or an error
// with the HTTP status to reply with.
func (w *Worker) execute(req ShardRequest) (*sweep.Summary, int64, int, error) {
	defer w.release()
	g, err := req.BuildGrid()
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	plan, fp, err := w.planFor(req, g)
	if err != nil {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("plan: %w", err)
	}
	// The provenance gate: a worker whose scenario registry, hook set or
	// binary drifted from the coordinator's enumerates a different plan —
	// refuse loudly rather than compute cells from the wrong grid.
	if fp != req.Fingerprint || len(plan) != req.TotalCells {
		return nil, 0, http.StatusConflict, fmt.Errorf("plan mismatch: this worker computes fingerprint %s over %d cells, request carries %s over %d (grid or binary drift)",
			fp, len(plan), req.Fingerprint, req.TotalCells)
	}
	cells, err := sweep.CellsAt(plan, req.Indices)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	// Record runs once per simulated cell, after Build, and never for a
	// cache hit: chaining onto it counts real simulations, not misses.
	var simulated atomic.Int64
	record := g.Record
	g.Record = func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		simulated.Add(1)
		if record == nil {
			return nil, nil
		}
		return record(c, d)
	}
	sum, err := sweep.RunPlanned(g, sweep.LocalRunner{Workers: w.CellWorkers, Cache: w.Cache}, fp, len(plan), cells)
	if err != nil {
		return nil, 0, http.StatusInternalServerError, fmt.Errorf("run: %w", err)
	}
	return sum, simulated.Load(), http.StatusOK, nil
}

// planFor enumerates and fingerprints the request's plan, through a
// one-entry cache keyed by the request's own grid spec and hook set (a
// registered hook set is a fixed deterministic function, so equal keys
// mean equal plans). The cache key is built worker-side from the decoded
// request — never from the coordinator's claimed fingerprint, which is
// what the gate in serveShard is there to check.
func (w *Worker) planFor(req ShardRequest, g sweep.Grid) ([]sweep.Cell, string, error) {
	keyBytes, err := json.Marshal(struct {
		Grid     GridSpec
		Hooks    string
		HookArgs string
	}{req.Grid, req.Hooks, req.HookArgs})
	if err != nil {
		return nil, "", err
	}
	key := string(keyBytes)
	w.mu.Lock()
	if key == w.planKey {
		plan, fp := w.plan, w.planFP
		w.mu.Unlock()
		return plan, fp, nil
	}
	w.mu.Unlock()
	plan, err := sweep.Plan(g)
	if err != nil {
		return nil, "", err
	}
	fp := sweep.Fingerprint(g, plan)
	w.mu.Lock()
	w.planKey, w.plan, w.planFP = key, plan, fp
	w.mu.Unlock()
	return plan, fp, nil
}

// serveReadHeaderTimeout bounds how long a connection may take to send
// its request header, and serveIdleTimeout how long a keep-alive
// connection may sit between requests, so a stalled or abandoned client
// cannot hold a socket forever. Neither bounds a shard's execution or its
// reply, which are unbounded as RemoteRunner documents. Variables so
// tests can tighten them.
var (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// Serve runs a worker daemon on l until the listener closes.
func Serve(l net.Listener, w *Worker) error {
	srv := &http.Server{Handler: w, ReadHeaderTimeout: serveReadHeaderTimeout, IdleTimeout: serveIdleTimeout}
	return srv.Serve(l)
}
