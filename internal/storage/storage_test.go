package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2009, 9, 1, 12, 0, 0, 0, time.UTC)

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
