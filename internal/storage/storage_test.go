package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simenv"
)

var t0 = time.Date(2009, 9, 1, 12, 0, 0, 0, time.UTC)

func pickFn(seed int64) func(string) float64 {
	return func(name string) float64 {
		return simenv.HashNoise(seed, name, 0)
	}
}

func TestCFWriteReadDelete(t *testing.T) {
	c := NewCFCard(1 << 20)
	if err := c.Write("a.dat", 1000, t0); err != nil {
		t.Fatal(err)
	}
	f, err := c.Read("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size != 1000 || f.Name != "a.dat" || !f.Created.Equal(t0) {
		t.Fatalf("read %+v", f)
	}
	if c.Used() != 1000 {
		t.Fatalf("used %d", c.Used())
	}
	if err := c.Delete("a.dat"); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 0 {
		t.Fatalf("used %d after delete", c.Used())
	}
	if _, err := c.Read("a.dat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestCFOverwriteAdjustsUsage(t *testing.T) {
	c := NewCFCard(1 << 20)
	if err := c.Write("f", 500, t0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("f", 200, t0); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 200 {
		t.Fatalf("used %d after overwrite, want 200", c.Used())
	}
}

func TestCFFullRejectsWrite(t *testing.T) {
	c := NewCFCard(1000)
	if err := c.Write("a", 900, t0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("b", 200, t0); err == nil {
		t.Fatal("overflow write accepted")
	}
	// Replacing the large file with a smaller one must work.
	if err := c.Write("a", 100, t0); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionAndRecovery(t *testing.T) {
	c := NewCFCard(1 << 30)
	for i := 0; i < 100; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := c.Write(name, 1024, t0); err != nil {
			t.Fatal(err)
		}
	}
	n := c.CorruptFraction(0.3, pickFn(1))
	if n == 0 {
		t.Fatal("no files corrupted at 30%")
	}
	if c.CorruptedCount() != n {
		t.Fatalf("corrupted count %d != %d", c.CorruptedCount(), n)
	}
	// Reading a corrupted file fails.
	failed := false
	for _, name := range c.List() {
		if _, err := c.Read(name); errors.Is(err, ErrCorrupted) {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no corrupted file surfaced ErrCorrupted")
	}
	// §VII: recovery proved possible — with a high success rate most data
	// comes back.
	rec, lost := c.Recover(0.9, pickFn(2))
	if rec == 0 {
		t.Fatal("recovery recovered nothing")
	}
	if rec+lost != n {
		t.Fatalf("recovered %d + lost %d != corrupted %d", rec, lost, n)
	}
	if c.CorruptedCount() != lost {
		t.Fatalf("still-corrupted %d != lost %d", c.CorruptedCount(), lost)
	}
}

func TestCorruptTargeted(t *testing.T) {
	c := NewCFCard(1 << 20)
	if err := c.Write("x", 10, t0); err != nil {
		t.Fatal(err)
	}
	if err := c.Corrupt("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("x"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("want ErrCorrupted, got %v", err)
	}
	if err := c.Corrupt("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSpoolFIFO(t *testing.T) {
	s := NewSpool()
	id1 := s.Add(KindDGPSFile, "r1", 165*1024, t0)
	id2 := s.Add(KindProbeData, "p21", 64*100, t0.Add(time.Minute))
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	it, ok := s.Peek()
	if !ok || it.ID != id1 {
		t.Fatalf("peek %+v", it)
	}
	if err := s.MarkSent(id1); err != nil {
		t.Fatal(err)
	}
	it, _ = s.Peek()
	if it.ID != id2 {
		t.Fatalf("peek after send %+v", it)
	}
	if s.SentBytes() != 165*1024 {
		t.Fatalf("sent bytes %d", s.SentBytes())
	}
}

func TestSpoolMarkSentUnknown(t *testing.T) {
	s := NewSpool()
	if err := s.MarkSent(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSpoolPendingBytesAndAge(t *testing.T) {
	s := NewSpool()
	s.Add(KindLog, "log", 100, t0)
	s.Add(KindLog, "log2", 50, t0.Add(time.Hour))
	if s.PendingBytes() != 150 {
		t.Fatalf("pending %d", s.PendingBytes())
	}
	if age := s.OldestAge(t0.Add(2 * time.Hour)); age != 2*time.Hour {
		t.Fatalf("oldest age %v", age)
	}
}

func TestItemKindStrings(t *testing.T) {
	kinds := []ItemKind{KindProbeData, KindDGPSFile, KindHousekeeping, KindLog, KindStateReport}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if ItemKind(0).String() != "unknown" {
		t.Fatal("zero ItemKind should be invalid")
	}
}

// Property: used bytes always equals the sum of live file sizes.
func TestPropertyUsageConsistent(t *testing.T) {
	f := func(ops []struct {
		Name byte
		Size uint16
		Del  bool
	}) bool {
		c := NewCFCard(1 << 30)
		for _, op := range ops {
			name := string(rune('a' + op.Name%8))
			if op.Del {
				_ = c.Delete(name)
			} else {
				_ = c.Write(name, int64(op.Size), t0)
			}
		}
		var sum int64
		for _, n := range c.List() {
			f, err := c.Read(n)
			if err != nil {
				return false
			}
			sum += f.Size
		}
		return sum == c.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: spool FIFO order is preserved under arbitrary add/send
// interleavings.
func TestPropertySpoolOrdered(t *testing.T) {
	f := func(adds uint8) bool {
		s := NewSpool()
		for i := 0; i < int(adds%50); i++ {
			s.Add(KindLog, "x", int64(i), t0)
		}
		items := s.Items()
		for i := 1; i < len(items); i++ {
			if items[i].ID <= items[i-1].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
