package scenario

import (
	"runtime"
	"testing"
)

// liveHeap returns the bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLiveHeapBoundedOverHorizon pins that a deployment's live set does
// not grow with its horizon: the stores between communication windows
// (a probe's unconfirmed readings, the station's CF card) hold only what
// has not yet been passed on. A 50-station fleet's live heap at day 60
// must stay within twice its day-10 value.
func TestLiveHeapBoundedOverHorizon(t *testing.T) {
	d, err := Build("fleet-N", Params{Seed: 1, Stations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(10); err != nil {
		t.Fatal(err)
	}
	day10 := liveHeap()
	if err := d.RunDays(50); err != nil {
		t.Fatal(err)
	}
	day60 := liveHeap()
	runtime.KeepAlive(d)
	ratio := float64(day60) / float64(day10)
	t.Logf("live heap: day 10 %.1f MB, day 60 %.1f MB (%.2fx)", float64(day10)/1e6, float64(day60)/1e6, ratio)
	if ratio > 2 {
		t.Fatalf("live heap grew %.2fx from day 10 to day 60 (%d to %d bytes), want at most 2x", ratio, day10, day60)
	}
}
