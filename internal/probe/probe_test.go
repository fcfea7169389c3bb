package probe

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

const year = 365 * 24 * time.Hour

func immortal(id int) Config {
	cfg := DefaultConfig(id)
	cfg.MeanLifetime = 200 * year
	return cfg
}

func TestSamplingAccumulatesHourly(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := p.PendingCount(); n != 48 {
		t.Fatalf("%d readings after 48h, want 48", n)
	}
}

func TestReadingsSequential(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for i, r := range p.Pending() {
		if r.Seq != uint64(i+1) {
			t.Fatalf("reading %d has seq %d", i, r.Seq)
		}
	}
}

func TestConductivityWinterLowSummerHigh(t *testing.T) {
	wx := weather.New(weather.DefaultConfig(2))
	sim := simenv.NewAt(2, time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC))
	p := New(sim, wx, immortal(21))
	feb := p.ConductivityAt(time.Date(2009, 2, 10, 12, 0, 0, 0, time.UTC))
	jul := p.ConductivityAt(time.Date(2009, 7, 20, 12, 0, 0, 0, time.UTC))
	if feb > 4 {
		t.Fatalf("February conductivity %v µS, want low winter floor", feb)
	}
	if jul < feb+3 {
		t.Fatalf("July conductivity %v not well above February %v (Fig 6 shape)", jul, feb)
	}
}

func TestConductivityRampsAtEndOfWinter(t *testing.T) {
	// Fig 6 shows the Jan-Apr window: flat, then rising in spring.
	wx := weather.New(weather.DefaultConfig(2))
	sim := simenv.NewAt(2, time.Date(2009, 1, 27, 0, 0, 0, 0, time.UTC))
	p := New(sim, wx, immortal(24))
	mean := func(m time.Month, d int) float64 {
		var sum float64
		for h := 0; h < 24; h++ {
			sum += p.ConductivityAt(time.Date(2009, m, d, h, 0, 0, 0, time.UTC))
		}
		return sum / 24
	}
	feb := mean(time.February, 10)
	apr := mean(time.April, 21)
	if apr <= feb+0.5 {
		t.Fatalf("conductivity not rising by late April: Feb %v, Apr %v", feb, apr)
	}
}

func TestProbesDiffer(t *testing.T) {
	wx := weather.New(weather.DefaultConfig(2))
	sim := simenv.NewAt(2, time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC))
	a := New(sim, wx, immortal(21))
	b := New(sim, wx, immortal(25))
	ts := time.Date(2009, 5, 15, 12, 0, 0, 0, time.UTC)
	if math.Abs(a.ConductivityAt(ts)-b.ConductivityAt(ts)) < 0.05 {
		t.Fatal("two probes give near-identical conductivity; per-probe variation missing")
	}
}

func TestMarkCompleteAdvancesPending(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	p.MarkComplete(6)
	if n := p.PendingCount(); n != 4 {
		t.Fatalf("pending %d after completing through 6 of 10, want 4", n)
	}
	if p.Pending()[0].Seq != 7 {
		t.Fatalf("first pending seq %d, want 7", p.Pending()[0].Seq)
	}
	// MarkComplete never regresses.
	p.MarkComplete(2)
	if n := p.PendingCount(); n != 4 || p.Pending()[0].Seq != 7 {
		t.Fatalf("pending %d from seq %d after a stale MarkComplete(2), want 4 from 7", n, p.Pending()[0].Seq)
	}
}

func TestProbeStopsSamplingAfterFailure(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.MeanLifetime = 24 * time.Hour // fail fast
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	if err := sim.RunFor(60 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.Alive(sim.Now()) {
		t.Skip("probe survived an unlikely draw")
	}
	n := p.PendingCount()
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != n {
		t.Fatal("dead probe kept sampling")
	}
}

func TestBufferOverflowDropsOldest(t *testing.T) {
	cfg := immortal(21)
	cfg.BufferCap = 10
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	if err := sim.RunFor(30 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != 10 {
		t.Fatalf("buffer holds %d, cap 10", p.PendingCount())
	}
	if p.DroppedReadings() != 20 {
		t.Fatalf("dropped %d, want 20", p.DroppedReadings())
	}
	if p.Pending()[0].Seq != 21 {
		t.Fatalf("oldest surviving seq %d, want 21", p.Pending()[0].Seq)
	}
}

// A full store drops its oldest reading whatever the base has confirmed:
// after MarkComplete(8) on a 10-reading store holding 6..15, five more
// samples leave exactly the ten newest readings, 11..20, pending.
func TestOverflowAfterMarkCompleteKeepsNewest(t *testing.T) {
	cfg := immortal(21)
	cfg.BufferCap = 10
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	if err := sim.RunFor(15 * time.Hour); err != nil {
		t.Fatal(err)
	}
	p.MarkComplete(8)
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	var got, want []uint64
	for _, r := range p.Pending() {
		got = append(got, r.Seq)
	}
	for seq := uint64(11); seq <= 20; seq++ {
		want = append(want, seq)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pending seqs %v, want %v", got, want)
	}
}

// §V: 4/7 probes alive after one year; ~2 still producing at 18 months.
func TestSurvivalMatchesPaperCohort(t *testing.T) {
	mean := time.Duration(1.8 * float64(year))
	// Average over many seeds: expectation should match the exponential.
	var oneYear, eighteenMo float64
	const seeds = 200
	for s := int64(0); s < seeds; s++ {
		oneYear += Survival(s, 7, mean, year)
		eighteenMo += Survival(s, 7, mean, year+year/2)
	}
	oneYear /= seeds
	eighteenMo /= seeds
	if oneYear < 0.50 || oneYear > 0.65 {
		t.Fatalf("mean 1-year survival %.2f, paper cohort 4/7≈0.57", oneYear)
	}
	if eighteenMo < 0.35 || eighteenMo > 0.52 {
		t.Fatalf("mean 18-month survival %.2f, want ~0.43 (2-3 of 7)", eighteenMo)
	}
	if eighteenMo >= oneYear {
		t.Fatal("survival not decreasing")
	}
}

func TestPressureAndTiltPhysical(t *testing.T) {
	wx := weather.New(weather.DefaultConfig(2))
	sim := simenv.NewAt(2, time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC))
	p := New(sim, wx, immortal(24))
	if err := sim.RunFor(90 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Pending() {
		if r.PressureKPa < 500 || r.PressureKPa > 800 {
			t.Fatalf("pressure %v kPa implausible for 70 m depth", r.PressureKPa)
		}
		if r.TiltDeg < 0 || r.TiltDeg > 90 {
			t.Fatalf("tilt %v out of range", r.TiltDeg)
		}
	}
}
