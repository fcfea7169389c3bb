// The executor: a Runner turns planned cells into executed CellResults.
// LocalRunner is the in-process bounded worker pool; Run and RunShardWith
// wire the whole pipeline (Plan -> Runner -> Reduce) for the common cases.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/deploy"
	"repro/internal/scenario"
)

// Runner executes planned cells. Implementations must preserve the plan's
// determinism contract: the result for a cell depends only on the grid and
// the cell, never on scheduling, and results are returned in plan order
// with their global Cell.Index intact — that index is what lets
// MergeSummaries fold shards executed anywhere back into one summary.
type Runner interface {
	Run(g Grid, cells []Cell) ([]CellResult, error)
}

// ResultCache is the pluggable result cache a LocalRunner consults before
// simulating a cell and populates after. A cell result is a pure function
// of (plan fingerprint, cell), so a cache hit is provably safe — but only
// if the implementation upholds the contract: Get must return ok solely
// when the stored entry decodes to exactly the result a fresh simulation
// of c under the fingerprinted plan would produce, with the decoded cell
// identity verified against c. Anything less — a corrupt entry, a format
// drift, an identity mismatch — must be a miss, never a served result.
// Implementations must be safe for concurrent use (internal/rescache is
// the on-disk content-addressed one).
type ResultCache interface {
	// Get returns the cached result for cell c of the plan identified by
	// fingerprint, or ok=false on any miss (absent, stale, corrupt).
	Get(fingerprint string, c Cell) (CellResult, bool)
	// Put stores an executed cell under (fingerprint, cell index). Best
	// effort: a store failure loses only future hits, never the run.
	Put(fingerprint string, cr CellResult)
}

// LocalRunner executes cells on a bounded in-process worker pool.
type LocalRunner struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache, when set, is consulted per cell before simulating and
	// populated with freshly simulated results (errored cells are never
	// cached: a failure is not a pure function of the plan). With a cache
	// the runner needs the plan identity, so it implements PlannedRunner;
	// the plain Run entry point plans once itself to recover it.
	Cache ResultCache
}

// Run executes the cells concurrently. Per-cell build/run failures are
// recorded in the cell (and later counted in its group's Errors), not
// returned — a 10,000-cell campaign should not abort because one
// configuration fails to build.
func (r LocalRunner) Run(g Grid, cells []Cell) ([]CellResult, error) {
	if r.Cache == nil {
		// Without a cache the plan identity is never read.
		return r.RunPlanned(g, "", 0, cells)
	}
	plan, err := Plan(g)
	if err != nil {
		return nil, err
	}
	return r.RunPlanned(g, Fingerprint(g, plan), len(plan), cells)
}

// RunPlanned implements PlannedRunner: with a cache, the handed-over plan
// fingerprint keys the lookups, so cached campaigns do not re-enumerate
// the cross-product per chunk; without one it is exactly Run. Only the
// cache misses are simulated: a fully hit chunk never enters the pool.
func (r LocalRunner) RunPlanned(g Grid, fingerprint string, totalCells int, cells []Cell) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	todo := make([]int, 0, len(cells))
	for i, c := range cells {
		if r.Cache != nil {
			if cr, ok := r.Cache.Get(fingerprint, c); ok {
				results[i] = cr
				continue
			}
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return results, nil
	}
	r.runPool(g, cells, results, todo)
	if r.Cache != nil {
		for _, i := range todo {
			if results[i].Err == "" {
				r.Cache.Put(fingerprint, results[i])
			}
		}
	}
	return results, nil
}

// runPool simulates cells[i] into results[i] for each i in todo on the
// bounded pool.
func (r LocalRunner) runPool(g Grid, cells []Cell, results []CellResult, todo []int) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	// Buffer the full index list so dispatch never blocks a worker: with an
	// unbuffered channel each hand-off serializes on the dispatching
	// goroutine, and a worker finishing a short cell waits on it instead of
	// starting the next one.
	idx := make(chan int, len(todo))
	for _, i := range todo {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//glacvet:allow goroutine runPool is the bounded worker pool; results land at fixed indices so output order is worker-count independent
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = g.runCell(cells[i])
			}
		}()
	}
	wg.Wait()
}

// Run executes the full grid locally: Plan, LocalRunner, Reduce. workers
// <= 0 selects GOMAXPROCS. Run errors only on an invalid grid. It is the
// one-shard special case of RunShardWith, so the full-run and shard paths
// can never drift.
func Run(g Grid, workers int) (*Summary, error) {
	return RunShardWith(g, LocalRunner{Workers: workers}, 0, 1)
}

// RunShardWith executes shard i of m of the grid through r and reduces it
// into a partial Summary: only the shard's cells, with their global
// indices, plus the full plan's fingerprint and cell count so
// MergeSummaries can validate and recombine it. Encode it with WriteJSON —
// that document is the shard wire format ReadSummary decodes on the other
// side. Plan and Reduce stay in this process; only Execute crosses to r,
// which may fan the cells out over remote workers.
func RunShardWith(g Grid, r Runner, i, m int) (*Summary, error) {
	plan, err := Plan(g)
	if err != nil {
		return nil, err
	}
	cells, err := Shard(plan, i, m)
	if err != nil {
		return nil, err
	}
	return RunPlanned(g, r, Fingerprint(g, plan), len(plan), cells)
}

// PlannedRunner is the optional fast path of a Runner whose own execution
// needs the plan identity (a networked runner stamps it on every shard
// request): callers that already planned hand it over instead of making
// the runner re-enumerate and re-hash the cross-product.
type PlannedRunner interface {
	Runner
	RunPlanned(g Grid, fingerprint string, totalCells int, cells []Cell) ([]CellResult, error)
}

// RunPlanned executes already-planned cells through r and reduces them
// into a Summary stamped with the plan's identity — the shared tail of
// every run entry point, and the seam for callers that have planned (and
// fingerprinted) once and must not pay for it again per shard: a worker
// daemon serving thousands of requests, a resumed campaign iterating
// chunks. A PlannedRunner receives the plan identity instead of
// recomputing it.
func RunPlanned(g Grid, r Runner, fingerprint string, totalCells int, cells []Cell) (*Summary, error) {
	var results []CellResult
	var err error
	if pr, ok := r.(PlannedRunner); ok {
		results, err = pr.RunPlanned(g, fingerprint, totalCells, cells)
	} else {
		results, err = r.Run(g, cells)
	}
	if err != nil {
		return nil, err
	}
	sum := Reduce(results)
	sum.Fingerprint = fingerprint
	sum.TotalCells = totalCells
	return sum, nil
}

// runCell builds, runs and measures one independent deployment. The
// named return lets the deferred Record finish hook fail the cell from
// behind any return path.
func (g Grid) runCell(c Cell) (cr CellResult) {
	cr = CellResult{Cell: c}
	s, ok := scenario.Lookup(c.Scenario)
	if !ok {
		cr.Err = fmt.Sprintf("scenario %q disappeared from the registry", c.Scenario)
		return cr
	}
	top := s.Topology(scenario.Params{Seed: c.Seed, Stations: c.Stations, Probes: c.Probes, Days: c.Days})
	for _, ov := range g.Overrides {
		if ov.Name == c.Override && ov.Apply != nil {
			ov.Apply(&top)
		}
	}
	d, err := deploy.Build(top)
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	if g.Record != nil {
		finish, err := g.Record(c, d)
		if err != nil {
			cr.Err = err.Error()
			return cr
		}
		if finish != nil {
			// Seal the cell's log whichever way the run ends; a seal
			// failure fails the cell, but never masks a run error.
			defer func() {
				if err := finish(); err != nil && cr.Err == "" {
					cr.Err = err.Error()
				}
			}()
		}
	}
	if g.Collect != nil {
		// Attach samplers before the run so the series cover it end to end
		// (including the t=0 baseline trace.Sample records at attach time).
		cr.Series = g.Collect(c, d)
	}
	var extra []Metric
	if g.Drive != nil {
		extra, err = g.Drive(c, d)
	} else {
		err = d.RunDays(c.Days)
	}
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	cr.Result = d.Result()
	// One exact-capacity metrics slice per cell: the standard block plus
	// whatever Drive and Observe contribute.
	cr.Metrics = make([]Metric, 0, numStandardMetrics+len(extra))
	cr.Metrics = appendStandardMetrics(cr.Metrics, cr.Result)
	cr.Metrics = append(cr.Metrics, extra...)
	if g.Observe != nil {
		cr.Metrics = append(cr.Metrics, g.Observe(c, d)...)
	}
	return cr
}

// numStandardMetrics is the size of the fleet-total block
// appendStandardMetrics emits.
const numStandardMetrics = 10

// appendStandardMetrics appends the fleet-total metrics every cell reports.
func appendStandardMetrics(dst []Metric, r deploy.Result) []Metric {
	f := r.Fleet
	return append(dst,
		Metric{Name: "runs", Value: float64(f.Runs)},
		Metric{Name: "completed-runs", Value: float64(f.CompletedRuns)},
		Metric{Name: "watchdog-trips", Value: float64(f.WatchdogTrips)},
		Metric{Name: "comms-failures", Value: float64(f.CommsFailures)},
		Metric{Name: "specials", Value: float64(f.SpecialsExecuted)},
		Metric{Name: "recoveries", Value: float64(f.Recoveries)},
		Metric{Name: "probes-alive", Value: float64(f.ProbesAlive)},
		Metric{Name: "probe-readings", Value: float64(f.ProbeReadings)},
		Metric{Name: "mb-to-server", Value: float64(f.BytesToServer) / (1 << 20)},
		Metric{Name: "uploads", Value: float64(f.Uploads)},
	)
}
