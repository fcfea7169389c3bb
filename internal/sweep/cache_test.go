package sweep

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/deploy"
)

// memCache is an in-memory ResultCache keyed like rescache: plan
// fingerprint plus global cell index.
type memCache struct {
	mu      sync.Mutex
	entries map[string]map[int]CellResult
	puts    int
}

func newMemCache() *memCache { return &memCache{entries: map[string]map[int]CellResult{}} }

func (m *memCache) Get(fingerprint string, c Cell) (CellResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cr, ok := m.entries[fingerprint][c.Index]
	return cr, ok
}

func (m *memCache) Put(fingerprint string, cr CellResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[fingerprint] == nil {
		m.entries[fingerprint] = map[int]CellResult{}
	}
	m.entries[fingerprint][cr.Cell.Index] = cr
	m.puts++
}

func (m *memCache) drop(fingerprint string, index int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries[fingerprint], index)
}

// runCounter is an Observe hook that records the global index of every
// cell that actually ran.
type runCounter struct {
	mu  sync.Mutex
	ran []int
}

func (rc *runCounter) observe(c Cell, _ *deploy.Deployment) []Metric {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ran = append(rc.ran, c.Index)
	return nil
}

func (rc *runCounter) take() []int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ran := rc.ran
	rc.ran = nil
	sort.Ints(ran)
	return ran
}

// A cached LocalRunner simulates exactly its cache misses: every cell on a
// cold cache, none on a fully warm one, only the dropped entries on a
// partly warm one — and every pass returns the same results.
func TestLocalRunnerSimulatesOnlyCacheMisses(t *testing.T) {
	var rc runCounter
	g := Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: SeedRange(3, 4), Days: 1, Observe: rc.observe}
	plan, err := Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(g, plan)
	cache := newMemCache()
	r := LocalRunner{Workers: 2, Cache: cache}
	run := func() []CellResult {
		t.Helper()
		res, err := r.RunPlanned(g, fp, len(plan), plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run()
	if ran := rc.take(); !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) || cache.puts != 4 {
		t.Fatalf("cold pass ran cells %v and stored %d, want all 4 run and stored", ran, cache.puts)
	}

	warm := run()
	if ran := rc.take(); len(ran) != 0 || cache.puts != 4 {
		t.Fatalf("fully warm pass ran cells %v (stores now %d), want none", ran, cache.puts)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("fully warm results differ from the cold pass")
	}

	cache.drop(fp, 1)
	cache.drop(fp, 3)
	partly := run()
	if ran := rc.take(); !reflect.DeepEqual(ran, []int{1, 3}) || cache.puts != 6 {
		t.Fatalf("partly warm pass ran cells %v (stores now %d), want exactly the misses [1 3] re-stored", ran, cache.puts)
	}
	var a, b bytes.Buffer
	if err := Reduce(cold).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Reduce(partly).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("partly warm summary differs from the cold pass")
	}
}
