package simenv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// This file tests the Simulator differentially: a naive reference
// scheduler — a slice kept sorted by (at, seq), with past times clamped to
// now — and the real kernel run the same random programs, and after every
// step of a program both must have executed the same (name, at) trace and
// agree on Now, Processed and Pending. The reference is the specification
// of event order; the Simulator's bucketed queue is an optimisation of it.

// refEvent is one queued event of the reference scheduler.
type refEvent struct {
	at        time.Time
	seq       uint64
	name      string
	fn        EventFunc
	id        EventID
	cancelled bool
}

// refKernel is the reference scheduler. Every operation is the obvious
// O(n) one; Run, Step and the cancelled-event reaping mirror the
// Simulator's documented contract line by line.
type refKernel struct {
	now       time.Time
	seq       uint64
	queue     []*refEvent // sorted by (at, seq)
	queued    map[EventID]*refEvent
	processed uint64
	stopped   bool
	running   bool
	tracer    func(name string, at time.Time)
}

func newRefKernel(start time.Time) *refKernel {
	return &refKernel{now: start, queued: map[EventID]*refEvent{}}
}

func (r *refKernel) Now() time.Time    { return r.now }
func (r *refKernel) Processed() uint64 { return r.processed }
func (r *refKernel) Pending() int      { return len(r.queue) }
func (r *refKernel) Stop()             { r.stopped = true }

func (r *refKernel) At(at time.Time, name string, fn EventFunc) EventID {
	if at.Before(r.now) {
		at = r.now
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, name: name, fn: fn, id: EventID(r.seq)}
	i := sort.Search(len(r.queue), func(i int) bool {
		q := r.queue[i]
		return q.at.After(ev.at) || (q.at.Equal(ev.at) && q.seq > ev.seq)
	})
	r.queue = slices.Insert(r.queue, i, ev)
	r.queued[ev.id] = ev
	return ev.id
}

func (r *refKernel) After(d time.Duration, name string, fn EventFunc) EventID {
	if d < 0 {
		d = 0
	}
	return r.At(r.now.Add(d), name, fn)
}

func (r *refKernel) Cancel(id EventID) {
	if ev, ok := r.queued[id]; ok {
		ev.cancelled = true
	}
}

func (r *refKernel) pop() *refEvent {
	ev := r.queue[0]
	r.queue = r.queue[1:]
	delete(r.queued, ev.id)
	return ev
}

func (r *refKernel) Step() bool {
	for len(r.queue) > 0 {
		ev := r.pop()
		if ev.cancelled {
			continue
		}
		if ev.at.After(r.now) {
			r.now = ev.at
		}
		r.tracer(ev.name, r.now)
		r.processed++
		ev.fn(r.now)
		return true
	}
	return false
}

func (r *refKernel) Run(until time.Time) error {
	if r.running {
		panic("reference: re-entrant Run")
	}
	r.running = true
	defer func() { r.running = false }()
	for !r.stopped {
		for len(r.queue) > 0 && r.queue[0].cancelled {
			r.pop()
		}
		if len(r.queue) == 0 || r.queue[0].at.After(until) {
			break
		}
		r.Step()
	}
	if r.stopped {
		r.stopped = false
		return ErrStopped
	}
	if r.now.Before(until) {
		r.now = until
	}
	return nil
}

func (r *refKernel) Every(start time.Time, period time.Duration, name string, fn EventFunc) stopper {
	t := &refTicker{r: r, period: period, name: name, fn: fn}
	t.id = r.At(start, name, t.tick)
	return t
}

// staleID returns an ID the reference never issued.
func (r *refKernel) staleID(_ EventID, k uint8) EventID { return ^EventID(k) }

// refTicker is Ticker's contract over the reference scheduler.
type refTicker struct {
	r      *refKernel
	period time.Duration
	name   string
	fn     EventFunc
	id     EventID
	done   bool
}

func (t *refTicker) tick(now time.Time) {
	if t.done {
		return
	}
	t.fn(now)
	if t.done {
		return
	}
	t.id = t.r.At(now.Add(t.period), t.name, t.tick)
}

func (t *refTicker) Stop() {
	if !t.done {
		t.done = true
		t.r.Cancel(t.id)
	}
}

type stopper interface{ Stop() }

// kernel is the surface a program drives, implemented by the reference
// and (through simKernel) by the Simulator.
type kernel interface {
	Now() time.Time
	Processed() uint64
	Pending() int
	At(at time.Time, name string, fn EventFunc) EventID
	After(d time.Duration, name string, fn EventFunc) EventID
	Cancel(id EventID)
	Every(start time.Time, period time.Duration, name string, fn EventFunc) stopper
	Stop()
	Run(until time.Time) error
	Step() bool
	staleID(id EventID, k uint8) EventID
}

type simKernel struct{ *Simulator }

func (s simKernel) Every(start time.Time, period time.Duration, name string, fn EventFunc) stopper {
	return s.Simulator.Every(start, period, name, fn)
}

// staleID forges an ID for id's slot with an older generation: the ID of
// some event that slot held before (or, for a generation that wraps, of
// none), never of a live event.
func (s simKernel) staleID(id EventID, k uint8) EventID {
	if k%4 == 3 {
		return EventID(uint64(k)<<32 | 0xFFFFFFF) // a slot past the table
	}
	return id - EventID(uint64(k%3+1)<<32)
}

// Program ops and in-callback actions, decoded from bytes by decodeProgram.
const (
	opAt = iota
	opAfter
	opBurst
	opCancel
	opCancelStale
	opCancelGroup
	opEvery
	opStopTicker
	opStop
	opRun
	opRunToEvent
	opStep
	numOps
)

const (
	actNone = iota
	actAtNow
	actAfter
	actCancelRecent
	actCancelGroup
	actStop
	actStopTicker
	actStopSelf // tickers only: Ticker.Stop inside its own callback
	numActs
)

type action struct{ kind, arg uint8 }

type op struct {
	kind   uint8
	off    time.Duration // At/Every start, After duration, Run horizon
	n      int           // burst size, handle or ticker pick, period minutes
	stride int           // burst: every stride-th event carries act
	act    action
}

// decodeProgram turns arbitrary bytes into at most maxOps ops. Offsets are
// whole minutes in a small range, so instants repeat and horizons land on
// them; an occasional nanosecond jitter separates nearly equal instants.
func decodeProgram(data []byte) []op {
	const maxOps = 128
	pos := 0
	next := func() uint8 {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	offset := func() time.Duration {
		b := next()
		d := time.Duration(int(b%24)-4) * time.Minute
		switch b / 24 % 4 {
		case 1:
			d += time.Nanosecond
		case 2:
			d -= time.Nanosecond
		}
		return d
	}
	nextAct := func() action { b := next(); return action{b % numActs, b / numActs} }
	var prog []op
	for pos < len(data) && len(prog) < maxOps {
		o := op{kind: next() % numOps}
		switch o.kind {
		case opAt, opEvery:
			o.off = offset()
			o.n = 1 + int(next()%30)
			o.act = nextAct()
		case opAfter:
			o.off = time.Duration(int(next()%16)-4) * time.Minute
			o.act = nextAct()
		case opBurst:
			o.off = offset()
			o.n = 2 + int(next()%48)
			o.stride = 1 + int(next()%8)
			o.act = nextAct()
		case opCancel, opCancelStale, opCancelGroup, opStopTicker, opRunToEvent:
			o.n = int(next())
		case opRun:
			o.off = time.Duration(next()%61) * time.Minute
		}
		prog = append(prog, o)
	}
	return prog
}

// side is one kernel under a program, with the handles the program uses
// to refer back to its events, bursts and tickers.
type side struct {
	k       kernel
	ids     []EventID
	ats     []time.Time // requested time of each handle's event
	groups  [][]int     // handles of each burst
	tickers []stopper
	trace   []string
}

func newSide(k kernel) *side { return &side{k: k} }

func (sd *side) record(name string, at time.Time) {
	sd.trace = append(sd.trace, name+"@"+at.Format(time.RFC3339Nano))
}

func (sd *side) schedule(at time.Time, act action, group int) {
	h := len(sd.ids)
	sd.ids = append(sd.ids, 0)
	sd.ats = append(sd.ats, at)
	sd.ids[h] = sd.k.At(at, "e"+strconv.Itoa(h), func(now time.Time) { sd.do(act, group, now) })
	if group >= 0 {
		sd.groups[group] = append(sd.groups[group], h)
	}
}

func (sd *side) after(d time.Duration, act action) {
	h := len(sd.ids)
	sd.ids = append(sd.ids, 0)
	sd.ats = append(sd.ats, sd.k.Now().Add(max(d, 0)))
	sd.ids[h] = sd.k.After(d, "e"+strconv.Itoa(h), func(now time.Time) { sd.do(act, -1, now) })
}

// do runs an event's action. Events an action schedules carry none, so
// every program terminates.
func (sd *side) do(act action, group int, now time.Time) {
	switch act.kind {
	case actAtNow:
		sd.schedule(now, action{}, -1)
	case actAfter:
		sd.after([]time.Duration{-time.Minute, 0, time.Nanosecond, time.Minute, 5 * time.Minute}[act.arg%5], action{})
	case actCancelRecent:
		if n := len(sd.ids); n > 0 {
			sd.k.Cancel(sd.ids[n-1-int(act.arg)%min(n, 8)])
		}
	case actCancelGroup:
		if group >= 0 {
			for _, h := range sd.groups[group] {
				sd.k.Cancel(sd.ids[h])
			}
		}
	case actStop:
		sd.k.Stop()
	case actStopTicker:
		if n := len(sd.tickers); n > 0 {
			sd.tickers[int(act.arg)%n].Stop()
		}
	}
}

// apply runs one op and returns a description of its result for the
// cross-check.
func (sd *side) apply(o op) string {
	now := sd.k.Now()
	switch o.kind {
	case opAt:
		sd.schedule(now.Add(o.off), o.act, -1)
	case opAfter:
		sd.after(o.off, o.act)
	case opBurst:
		g := len(sd.groups)
		sd.groups = append(sd.groups, nil)
		for i := 0; i < o.n; i++ {
			act := action{}
			if i%o.stride == 0 {
				act = o.act
			}
			sd.schedule(now.Add(o.off), act, g)
		}
	case opCancel:
		if len(sd.ids) > 0 {
			sd.k.Cancel(sd.ids[o.n%len(sd.ids)])
		} else {
			sd.k.Cancel(0)
		}
	case opCancelStale:
		if len(sd.ids) > 0 {
			sd.k.Cancel(sd.k.staleID(sd.ids[o.n%len(sd.ids)], uint8(o.n)))
		}
	case opCancelGroup:
		if len(sd.groups) > 0 {
			for _, h := range sd.groups[o.n%len(sd.groups)] {
				sd.k.Cancel(sd.ids[h])
			}
		}
	case opEvery:
		if len(sd.tickers) >= 4 {
			break
		}
		var tk stopper
		fires, act := 0, o.act
		tk = sd.k.Every(now.Add(o.off), time.Duration(o.n)*time.Minute, "t"+strconv.Itoa(len(sd.tickers)), func(now time.Time) {
			fires++
			if act.kind == actStopSelf {
				if fires > int(act.arg%4) {
					tk.Stop()
				}
				return
			}
			sd.do(act, -1, now)
		})
		sd.tickers = append(sd.tickers, tk)
	case opStopTicker:
		if len(sd.tickers) > 0 {
			sd.tickers[o.n%len(sd.tickers)].Stop()
		}
	case opStop:
		sd.k.Stop()
	case opRun:
		return fmt.Sprint(sd.k.Run(now.Add(o.off)))
	case opRunToEvent:
		if len(sd.ats) > 0 {
			return fmt.Sprint(sd.k.Run(sd.ats[o.n%len(sd.ats)]))
		}
	case opStep:
		return fmt.Sprint(sd.k.Step())
	}
	return ""
}

// runProgram drives the Simulator and the reference through one decoded
// program and fails at the first op after which they disagree.
func runProgram(t *testing.T, data []byte) {
	t.Helper()
	sim := New(1)
	got := newSide(simKernel{sim})
	sim.OnEvent(got.record)
	ref := newRefKernel(sim.Now())
	want := newSide(ref)
	ref.tracer = want.record
	prog := decodeProgram(data)
	for i, o := range prog {
		g, w := got.apply(o), want.apply(o)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %d of %d %+v: %s\nprogram %v", i, len(prog), o, fmt.Sprintf(format, args...), data)
		}
		if g != w {
			fail("result %q, reference %q", g, w)
		}
		if n := min(len(got.trace), len(want.trace)); !slices.Equal(got.trace[:n], want.trace[:n]) {
			j := 0
			for got.trace[j] == want.trace[j] {
				j++
			}
			fail("event %d ran %s, reference %s", j, got.trace[j], want.trace[j])
		}
		if len(got.trace) != len(want.trace) {
			fail("%d events ran, reference %d", len(got.trace), len(want.trace))
		}
		if !sim.Now().Equal(ref.Now()) {
			fail("Now %v, reference %v", sim.Now(), ref.Now())
		}
		if sim.Processed() != ref.Processed() {
			fail("Processed %d, reference %d", sim.Processed(), ref.Processed())
		}
		if sim.Pending() != ref.Pending() {
			fail("Pending %d, reference %d", sim.Pending(), ref.Pending())
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 16+rng.Intn(512))
		rng.Read(data)
		runProgram(t, data)
	}
}

// FuzzKernel runs the differential driver on fuzzed programs. The seeds
// each aim at one corner of the contract, so plain `go test` covers them.
func FuzzKernel(f *testing.F) {
	for _, seed := range [][]byte{
		// many events on one instant, then a horizon landing exactly on it
		{opBurst, 10, 40, 1, actNone, opRunToEvent, 0},
		// past, present and future At, negative and zero After, then Steps
		{opAt, 0, 0, actNone, opAt, 4, 0, actNone, opAt, 9, 0, actNone,
			opAfter, 0, actNone, opAfter, 4, actNone, opStep, opStep, opStep, opStep, opStep, opStep},
		// At(now) from inside callbacks while their instant drains
		{opBurst, 6, 20, 2, actAtNow, opAt, 6, 0, actAtNow, opRun, 10},
		// cancel every event of a bucket, from outside and mid-drain
		{opBurst, 7, 12, 1, actNone, opCancelGroup, 0, opBurst, 7, 12, 1, actCancelGroup, opRun, 30},
		// cancel pending, executed, stale and unknown IDs
		{opAt, 5, 0, actNone, opAt, 6, 0, actNone, opCancel, 0, opRun, 5,
			opCancel, 0, opCancelStale, 0, opCancelStale, 3, opAt, 6, 0, actNone, opCancelStale, 1, opRun, 20},
		// tickers that stop themselves, are stopped from outside, and cancel
		{opEvery, 5, 5, actStopSelf + numActs*2, opEvery, 5, 5, actAtNow, opEvery, 6, 3, actCancelRecent,
			opRun, 30, opStopTicker, 1, opRun, 60},
		// Stop before Run, Stop during Run, chained horizons and bare Steps
		{opAt, 5, 0, actNone, opStop, opRun, 10, opBurst, 6, 9, 3, actStop, opRun, 20, opRun, 20,
			opStep, opStep, opRun, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(runProgram)
}

// TestInstantIndexMatchesMap drives the queue's instant index through
// random opens and removals over a small key space, so probe runs collide,
// wrap around the table and shift back on removal, and checks every key's
// lookup against a Go map after each step.
func TestInstantIndexMatchesMap(t *testing.T) {
	q := newEventQueue()
	want := map[instKey]uint32{}
	var keys []instKey
	for sec := int64(0); sec < 40; sec++ {
		for nsec := int32(0); nsec < 3; nsec++ {
			keys = append(keys, instKey{sec * 300, nsec})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(len(keys))]
		if b, ok := want[k]; ok {
			// The index only needs len(heap) to count live buckets.
			q.remove(b)
			q.heap = q.heap[:len(q.heap)-1]
			q.free = append(q.free, b)
			delete(want, k)
		} else {
			want[k] = q.open(k, 0)
		}
		for _, k := range keys {
			b, ok := q.find(k)
			if wb, wok := want[k]; ok != wok || ok && b != wb {
				t.Fatalf("step %d: find(%v) = %d, %v; want %d, %v", step, k, b, ok, wb, wok)
			}
		}
	}
	if len(q.index) > 4*len(keys) {
		t.Fatalf("index grew to %d entries for at most %d live instants", len(q.index), len(keys))
	}
}
