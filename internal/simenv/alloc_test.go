package simenv

import (
	"testing"
	"time"
)

// These tests pin the kernel's allocation discipline: once the queue and
// slot table have grown to working size, scheduling and executing events
// must not touch the heap at all. A regression here multiplies by every
// event of every cell of every campaign, so it fails the build rather than
// waiting for the bench trajectory to notice.
//
// The same set of functions carries //glacvet:hotpath in simenv.go (At,
// After, Cancel, Step, enqueue, dequeue, allocSlot, freeSlot, Ticker.tick,
// and the eventQueue helpers front, open, close, less, home, find, insert
// and remove): `make lint` rejects the allocation patterns
// statically, these pins catch whatever slips past the lint at runtime.
// Keep the two sets in sync. eventQueue.grow is left out on purpose: it
// allocates, but only when the pending-instant count sets a new high.

func TestScheduleStepAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	// Warm up so the queue, slot table and free list reach steady size.
	for i := 0; i < 64; i++ {
		s.After(time.Second, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Second, "e", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+execute allocates %.1f objects/op in steady state, want 0", avg)
	}
}

func TestCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		s.After(time.Second, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		id := s.After(time.Second, "e", fn)
		s.Cancel(id)
		for s.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel+reap allocates %.1f objects/op, want 0", avg)
	}
}

func TestTickerSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	s.Every(s.Now().Add(time.Second), time.Second, "tk", func(time.Time) {})
	if !s.Step() { // first firing settles the reschedule path
		t.Fatal("ticker did not fire")
	}
	avg := testing.AllocsPerRun(200, func() {
		if !s.Step() {
			t.Fatal("ticker stopped firing")
		}
	})
	if avg != 0 {
		t.Fatalf("ticker reschedule allocates %.1f objects/op, want 0 (tick closure must be bound once)", avg)
	}
}

func TestSharedInstantTickersAllocFree(t *testing.T) {
	// The fleet's shape: a thousand tickers on one instant. Each Run drains
	// that instant's bucket, whose events reopen the next instant from the
	// free list, and a cancelled event sits inside the bucket between live
	// ones.
	s := New(1)
	fn := func(time.Time) {}
	for i := 0; i < 1000; i++ {
		s.Every(s.Now().Add(time.Minute), time.Minute, "tk", fn)
	}
	step := func() {
		next := s.Now().Add(time.Minute)
		s.Cancel(s.At(next, "x", fn))
		s.At(next, "y", fn)
		if err := s.Run(next); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("a 1000-ticker instant allocates %.1f objects per drain, want 0", avg)
	}
	if got, want := s.Processed(), uint64(59*1001); got != want {
		t.Fatalf("Processed = %d, want %d", got, want)
	}
}

func TestDistinctInstantTickersAllocFree(t *testing.T) {
	// The opposite shape: every event alone on its instant, so each one
	// opens a bucket and drains it, churning the instant index.
	s := New(1)
	fn := func(time.Time) {}
	for i := 0; i < 1000; i++ {
		s.Every(s.Now().Add(time.Duration(i+1)*time.Second), 1000*time.Second, "tk", fn)
	}
	step := func() {
		if err := s.RunFor(1000 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("1000 single-event instants allocate %.1f objects per round, want 0", avg)
	}
}
