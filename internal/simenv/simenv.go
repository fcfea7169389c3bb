// Package simenv provides the deterministic discrete-event simulation kernel
// used by every simulated subsystem in the Glacsweb reproduction.
//
// The kernel is deliberately small: a virtual clock, a priority queue of
// timestamped events, and a seed that keys every model's deterministic
// HashNoise draws. All hardware, weather and link models are built as events
// scheduled on a Simulator, which makes multi-month deployments run in
// milliseconds and makes every run exactly reproducible from its seed.
//
// The event loop is engineered for allocation discipline and for the
// fleet's shape, where every station's tickers fire at the same instants.
// The queue is a hand-rolled min-heap of distinct instants, not of events:
// each instant owns a FIFO bucket of its events in schedule order, so an
// event costs a link and an unlink while the heap moves only when an
// instant first gets an event or drains. Event identity lives in a
// reusable generation-stamped slot table rather than per-event map
// entries, and tickers reschedule with a closure bound once at
// construction. Steady-state schedule/execute cycles perform zero heap
// allocations (pinned by the tests in alloc_test.go), which is what lets
// fleet-scale sweep campaigns run at memory-bandwidth speed instead of
// garbage-collection speed.
package simenv

import (
	"errors"
	"fmt"
	"time"
)

// Epoch is the default simulation start time. Deployments usually override it
// (the Iceland deployment scenarios start in autumn 2008), but tests rely on
// a stable default.
var Epoch = time.Date(2008, time.September, 1, 0, 0, 0, 0, time.UTC)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by reaching its horizon or draining its queue.
var ErrStopped = errors.New("simenv: simulation stopped")

// Clock exposes the current simulated time. Components hold a Clock rather
// than a *Simulator when they only need to read time, which keeps them
// trivially testable.
type Clock interface {
	Now() time.Time
}

// EventFunc is the body of a scheduled event. It runs at its scheduled
// simulated time on the single simulation goroutine.
type EventFunc func(now time.Time)

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is never issued, so it can stand for "no event". An ID packs a slot
// index and a generation: when the event runs (or its cancellation is
// reaped) the slot's generation advances, so a stale ID held by a component
// can never affect an unrelated event that later reuses the slot.
type EventID uint64

// instKey is an instant as the two integers at.Unix()/at.Nanosecond(),
// computed once at schedule time. Two integer compares are several times
// cheaper than time.Time.Equal/Before (which unpack the wall/ext encoding
// per call), and unlike UnixNano they cannot overflow, so events centuries
// out (exponential probe lifetimes) still order correctly.
type instKey struct {
	sec  int64
	nsec int32
}

func (a instKey) before(b instKey) bool {
	return a.sec < b.sec || (a.sec == b.sec && a.nsec < b.nsec)
}

// bucket is the FIFO of one pending instant: the events scheduled for it,
// in schedule order, as a list linked through eventSlot.next from head to
// tail. Linking through the slot table rather than giving each bucket its
// own slice keeps the queue's memory at one small struct per pending
// instant; per-bucket slices recycled through a free list would each creep
// up to the largest batch any instant ever held.
type bucket struct {
	key        instKey
	head, tail uint32 // first and last queued slot
}

// noBucket marks an empty last-bucket cache.
const noBucket = ^uint32(0)

// eventQueue orders pending events by (instant, schedule order). It is a
// binary min-heap of distinct instants, each owning a bucket, rather than
// a heap of events: the fleet's tickers put hundreds of events on every
// instant, and a per-event heap spent most of its time re-sorting equal
// timestamps by sequence number. Here an event costs a link onto its
// bucket's tail and an unlink from a bucket's head; the heap is touched
// only when an instant gets its first event and when its bucket drains.
//
// Schedule order within an instant needs no sequence number: each new
// event is scheduled after every event already queued, so linking it onto
// its bucket's tail keeps the bucket in schedule order. That holds for
// At(now) while the current instant drains and for past times clamped to
// now, because no queued event lies before now. Drained buckets go on a
// free list, so a steady-state schedule allocates nothing.
//
// The index from instant to bucket is an open-addressing hash table with
// linear probing, not a Go map: removal shifts the rest of its probe run
// back instead of leaving a tombstone, so the constant open/drain churn
// never forces a rehash, and a probe is one multiply and a compare.
type eventQueue struct {
	heap    []uint32 // bucket indices, min-heap on their keys
	buckets []bucket // every bucket ever opened, live or free
	free    []uint32 // drained buckets ready for reuse
	index   []uint32 // hash table of live buckets, as index+1; 0 is empty
	shift   uint     // 64 - log2(len(index))
	last    uint32   // bucket of the previous enqueue, or noBucket
	n       int      // queued events, cancelled ones included
}

func newEventQueue() eventQueue {
	return eventQueue{index: make([]uint32, 16), shift: 64 - 4, last: noBucket}
}

// enqueue links slot idx onto the tail of instant k's bucket. Consecutive
// events for one instant (a batch of tickers rescheduling to the same next
// tick) hit the last-bucket cache and skip the index.
//
//glacvet:hotpath
func (s *Simulator) enqueue(k instKey, idx uint32) {
	q := &s.queue
	q.n++
	b := q.last
	if b == noBucket || q.buckets[b].key != k {
		var ok bool
		if b, ok = q.find(k); !ok {
			q.last = q.open(k, idx)
			return
		}
		q.last = b
	}
	bk := &q.buckets[b]
	s.slots[bk.tail].next = idx
	bk.tail = idx
}

// dequeue unlinks and returns the slot at the head of the earliest
// instant's bucket. When that drains the bucket, the instant leaves the
// heap and the index and the bucket goes on the free list.
//
//glacvet:hotpath
func (s *Simulator) dequeue() uint32 {
	q := &s.queue
	bi := q.heap[0]
	b := &q.buckets[bi]
	idx := b.head
	q.n--
	if idx == b.tail {
		q.close(bi)
	} else {
		b.head = s.slots[idx].next
	}
	return idx
}

// front returns the slot at the head of the earliest instant's bucket.
//
//glacvet:hotpath
func (q *eventQueue) front() (uint32, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.buckets[q.heap[0]].head, true
}

// open gives instant k a bucket holding just slot idx, reusing a drained
// bucket when it can, and sifts it into the heap.
//
//glacvet:hotpath
func (q *eventQueue) open(k instKey, idx uint32) uint32 {
	var b uint32
	if n := len(q.free); n > 0 {
		b = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.buckets = append(q.buckets, bucket{})
		b = uint32(len(q.buckets) - 1)
	}
	q.buckets[b] = bucket{key: k, head: idx, tail: idx}
	q.insert(b)
	q.heap = append(q.heap, b)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return b
}

// close retires the drained bucket bi, which is the heap's root.
//
//glacvet:hotpath
func (q *eventQueue) close(bi uint32) {
	q.remove(bi)
	if q.last == bi {
		q.last = noBucket
	}
	q.free = append(q.free, bi)
	h := q.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(h[r], h[l]) {
			m = r
		}
		if !q.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

//glacvet:hotpath
func (q *eventQueue) less(a, b uint32) bool {
	return q.buckets[a].key.before(q.buckets[b].key)
}

// home is the index position where instant k's probe run starts.
//
//glacvet:hotpath
func (q *eventQueue) home(k instKey) int {
	h := uint64(k.sec)*0x9E3779B97F4A7C15 ^ uint64(uint32(k.nsec))
	h ^= h >> 29
	return int(h * 0xBF58476D1CE4E5B9 >> q.shift)
}

// find returns the live bucket of instant k.
//
//glacvet:hotpath
func (q *eventQueue) find(k instKey) (uint32, bool) {
	mask := len(q.index) - 1
	for i := q.home(k); ; i = (i + 1) & mask {
		e := q.index[i]
		if e == 0 {
			return 0, false
		}
		if q.buckets[e-1].key == k {
			return e - 1, true
		}
	}
}

// insert adds live bucket b to the index, doubling the table first if
// that would fill it past half.
//
//glacvet:hotpath
func (q *eventQueue) insert(b uint32) {
	if 2*(len(q.heap)+1) > len(q.index) {
		q.grow()
	}
	mask := len(q.index) - 1
	i := q.home(q.buckets[b].key)
	for q.index[i] != 0 {
		i = (i + 1) & mask
	}
	q.index[i] = b + 1
}

// remove deletes bucket b from the index. Each later entry of the probe
// run whose home is not between the hole and itself moves back into the
// hole, so every entry stays reachable from its home without tombstones.
//
//glacvet:hotpath
func (q *eventQueue) remove(b uint32) {
	mask := len(q.index) - 1
	i := q.home(q.buckets[b].key)
	for q.index[i] != b+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; q.index[j] != 0; j = (j + 1) & mask {
		h := q.home(q.buckets[q.index[j]-1].key)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			q.index[i] = q.index[j]
			i = j
		}
	}
	q.index[i] = 0
}

// grow doubles the index table and reinserts every live bucket. It runs
// only when the number of pending instants reaches a new high, so it is
// the one queue helper outside the zero-alloc steady state.
func (q *eventQueue) grow() {
	old := q.index
	q.index = make([]uint32, 2*len(old))
	q.shift--
	mask := len(q.index) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := q.home(q.buckets[e-1].key)
		for q.index[i] != 0 {
			i = (i + 1) & mask
		}
		q.index[i] = e
	}
}

// Slot states for the event identity table. A slot is free until At claims
// it, pending while its event sits in the queue, and cancelled between
// Cancel and the pop that reaps it.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// eventSlot carries an event's identity (generation + lifecycle state) and
// its payload. The queue holds only slot indices, linked into buckets
// through next; the fn/name references are dropped the moment the slot is
// freed so the GC never sees residue from executed events.
type eventSlot struct {
	at    time.Time
	fn    EventFunc
	name  string
	gen   uint32
	next  uint32 // the following slot in the event's bucket, if any
	state uint8
}

// packID encodes a slot index and generation as an EventID. The +1 keeps
// the zero EventID unused so components can treat it as "no event".
func packID(idx, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | (uint64(idx) + 1))
}

// slotFor resolves an EventID to its live slot, or nil for an ID that was
// never issued or whose slot has since been recycled (generation mismatch).
func (s *Simulator) slotFor(id EventID) *eventSlot {
	low := uint64(id) & 0xFFFFFFFF
	if low == 0 || low > uint64(len(s.slots)) {
		return nil
	}
	sl := &s.slots[low-1]
	if sl.gen != uint32(uint64(id)>>32) {
		return nil
	}
	return sl
}

// Simulator is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with New.
type Simulator struct {
	now       time.Time
	queue     eventQueue
	slots     []eventSlot
	freeSlots []uint32
	stopped   bool
	running   bool
	processed uint64
	seed      int64
	tracers   []func(name string, at time.Time)
}

// New returns a Simulator whose clock starts at Epoch and whose models draw
// their noise from seed.
func New(seed int64) *Simulator {
	return NewAt(seed, Epoch)
}

// NewAt returns a Simulator whose clock starts at the given time.
func NewAt(seed int64, start time.Time) *Simulator {
	return &Simulator{now: start, seed: seed, queue: newEventQueue()}
}

var _ Clock = (*Simulator)(nil)

// Now returns the current simulated time.
func (s *Simulator) Now() time.Time { return s.now }

// Seed returns the seed the simulator was constructed with.
func (s *Simulator) Seed() int64 { return s.seed }

// Processed reports how many events have executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued (including cancelled ones that
// have not yet been skipped).
func (s *Simulator) Pending() int { return s.queue.n }

// OnEvent registers a tracer invoked before each event runs. Used by tests
// and the trace package to observe scheduling without changing behaviour,
// and by the evlog recorder/verifier (DESIGN.md §12) as the hook through
// which whole runs are recorded and replayed event for event. With no
// tracers registered the Step path pays nothing for this seam.
func (s *Simulator) OnEvent(fn func(name string, at time.Time)) {
	s.tracers = append(s.tracers, fn)
}

// At schedules fn to run at the given absolute simulated time. Scheduling in
// the past (or exactly now) runs the event at the current time, after any
// events already queued for that time. Steady-state scheduling allocates
// nothing: the event lives in a recycled slot, linked onto its instant's
// bucket.
//
//glacvet:hotpath
func (s *Simulator) At(at time.Time, name string, fn EventFunc) EventID {
	if fn == nil {
		panic("simenv: nil EventFunc")
	}
	if at.Before(s.now) {
		at = s.now
	}
	idx, id := s.allocSlot()
	sl := &s.slots[idx]
	sl.at = at
	sl.fn = fn
	sl.name = name
	s.enqueue(instKey{at.Unix(), int32(at.Nanosecond())}, idx)
	return id
}

//glacvet:hotpath
func (s *Simulator) allocSlot() (uint32, EventID) {
	var idx uint32
	if n := len(s.freeSlots); n > 0 {
		idx = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	s.slots[idx].state = slotPending
	return idx, packID(idx, s.slots[idx].gen)
}

// freeSlot retires the slot behind a popped event and reports whether the
// event had been cancelled. Advancing the generation invalidates any stale
// EventID a component still holds, so slot reuse can never let an old
// Cancel reach an unrelated new event. The payload references are dropped
// here so the GC can reclaim the callback and whatever it captured.
//
//glacvet:hotpath
func (s *Simulator) freeSlot(idx uint32) (cancelled bool) {
	sl := &s.slots[idx]
	cancelled = sl.state == slotCancelled
	sl.state = slotFree
	sl.gen++
	sl.fn = nil
	sl.name = ""
	s.freeSlots = append(s.freeSlots, idx)
	return cancelled
}

// After schedules fn to run d after the current simulated time. Negative
// durations are treated as zero.
//
//glacvet:hotpath
func (s *Simulator) After(d time.Duration, name string, fn EventFunc) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), name, fn)
}

// Every schedules fn at the given period starting at start, rescheduling
// itself until cancelled via the returned *Ticker.
func (s *Simulator) Every(start time.Time, period time.Duration, name string, fn EventFunc) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simenv: non-positive ticker period %v", period))
	}
	t := &Ticker{sim: s, period: period, name: name, fn: fn}
	t.tickFn = t.tick // bound once; every reschedule reuses this closure
	t.id = s.At(start, name, t.tickFn)
	return t
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled, or was never issued) is a no-op:
// the ID's generation no longer matches its slot, so nothing is marked and
// nothing can leak — the slot table holds no residue for completed events.
//
//glacvet:hotpath
func (s *Simulator) Cancel(id EventID) {
	if sl := s.slotFor(id); sl != nil && sl.state == slotPending {
		sl.state = slotCancelled
	}
}

// Stop halts Run after the currently executing event returns. A Stop issued
// while no Run is in progress is honoured by the next Run, which returns
// ErrStopped before executing any event; each Stop stops exactly one Run.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
//
//glacvet:hotpath
func (s *Simulator) Step() bool {
	for len(s.queue.heap) > 0 {
		idx := s.dequeue()
		sl := &s.slots[idx]
		at, fn, name := sl.at, sl.fn, sl.name
		if s.freeSlot(idx) {
			continue
		}
		if at.After(s.now) {
			s.now = at
		}
		for _, tr := range s.tracers {
			tr(name, s.now)
		}
		s.processed++
		fn(s.now)
		return true
	}
	return false
}

// Run executes events until the queue is empty, the horizon is reached, or
// Stop is called. The clock is left at min(horizon, last event time); if the
// queue drains before the horizon the clock is advanced to the horizon so
// callers can chain Run calls. Returns ErrStopped iff stopped explicitly —
// including a Stop issued before Run was called, which stops this Run
// before it executes anything (the stop is consumed either way, so a
// subsequent Run proceeds normally).
func (s *Simulator) Run(until time.Time) error {
	if s.running {
		panic("simenv: re-entrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	for !s.stopped {
		at, ok := s.peek()
		if !ok || at.After(until) {
			break
		}
		s.Step()
	}
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	if s.now.Before(until) {
		s.now = until
	}
	return nil
}

// RunFor runs the simulation for d of simulated time from the current clock.
func (s *Simulator) RunFor(d time.Duration) error {
	return s.Run(s.now.Add(d))
}

// peek returns the time of the next live event, reaping any cancelled
// events that have reached the head of the earliest bucket.
func (s *Simulator) peek() (time.Time, bool) {
	for {
		idx, ok := s.queue.front()
		if !ok {
			return time.Time{}, false
		}
		sl := &s.slots[idx]
		if sl.state != slotCancelled {
			return sl.at, true
		}
		s.freeSlot(s.dequeue())
	}
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim    *Simulator
	period time.Duration
	name   string
	fn     EventFunc
	tickFn EventFunc // t.tick bound once, so rescheduling allocates no closure
	id     EventID
	done   bool
	fires  uint64
}

// Stop cancels all future firings of the ticker.
func (t *Ticker) Stop() {
	if t.done {
		return
	}
	t.done = true
	t.sim.Cancel(t.id)
}

// Fires reports how many times the ticker has fired.
func (t *Ticker) Fires() uint64 { return t.fires }

//glacvet:hotpath
func (t *Ticker) tick(now time.Time) {
	if t.done {
		return
	}
	t.fires++
	t.fn(now)
	if t.done { // fn may have stopped us
		return
	}
	t.id = t.sim.At(now.Add(t.period), t.name, t.tickFn)
}

// Midday returns 12:00 UTC on the day containing ts — the daily
// communications window used throughout the deployment.
func Midday(ts time.Time) time.Time {
	y, m, d := ts.UTC().Date()
	return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
}

// NextMidday returns the first 12:00 UTC strictly after ts.
func NextMidday(ts time.Time) time.Time {
	mid := Midday(ts)
	if mid.After(ts) {
		return mid
	}
	return mid.Add(24 * time.Hour)
}

// StartOfDay returns 00:00 UTC on the day containing ts.
func StartOfDay(ts time.Time) time.Time {
	y, m, d := ts.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// DayOfYear returns the 1-based day of year of ts in UTC.
func DayOfYear(ts time.Time) int { return ts.UTC().YearDay() }

// HourOfDay returns the hour of day of ts in UTC as a float in [0, 24).
func HourOfDay(ts time.Time) float64 {
	u := ts.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60 + float64(u.Second())/3600
}
