// Package storage models the station's upload spool, the queue that
// survives failed GPRS sessions ("if for any reason the communications fail
// the data is stored locally until it can be sent onwards").
package storage

import (
	"errors"
	"fmt"
	"time"
)

// ErrNotFound is returned when a spool item does not exist.
var ErrNotFound = errors.New("storage: file not found")

// Spool is the persistent upload queue: everything waiting to go to
// Southampton. Items are kept in arrival order and only removed once the
// upload is confirmed.
type Spool struct {
	items  []Item
	nextID uint64
	sent   int64 // lifetime bytes confirmed sent
}

// ItemKind classifies spooled data.
type ItemKind int

// Spool item kinds. Starting at 1 so the zero value is invalid.
const (
	KindProbeData ItemKind = iota + 1
	KindDGPSFile
	KindHousekeeping
	KindLog
	KindStateReport
)

func (k ItemKind) String() string {
	switch k {
	case KindProbeData:
		return "probe-data"
	case KindDGPSFile:
		return "dgps-file"
	case KindHousekeeping:
		return "housekeeping"
	case KindLog:
		return "log"
	case KindStateReport:
		return "state-report"
	default:
		return "unknown"
	}
}

// Item is one spooled unit of upload.
type Item struct {
	// ID is assigned by the spool.
	ID uint64
	// Kind classifies the payload.
	Kind ItemKind
	// Name describes the payload (e.g. dGPS file name).
	Name string
	// Bytes is the payload size.
	Bytes int64
	// Created is when the item was spooled.
	Created time.Time
}

// NewSpool returns an empty spool.
func NewSpool() *Spool { return &Spool{} }

// Add spools an item and returns its ID.
func (s *Spool) Add(kind ItemKind, name string, bytes int64, now time.Time) uint64 {
	s.nextID++
	s.items = append(s.items, Item{ID: s.nextID, Kind: kind, Name: name, Bytes: bytes, Created: now})
	return s.nextID
}

// Len returns the number of queued items.
func (s *Spool) Len() int { return len(s.items) }

// PendingBytes returns the total queued volume.
func (s *Spool) PendingBytes() int64 {
	var n int64
	for _, it := range s.items {
		n += it.Bytes
	}
	return n
}

// Peek returns the oldest item without removing it.
func (s *Spool) Peek() (Item, bool) {
	if len(s.items) == 0 {
		return Item{}, false
	}
	return s.items[0], true
}

// Items returns a copy of the queue, oldest first.
func (s *Spool) Items() []Item {
	out := make([]Item, len(s.items))
	copy(out, s.items)
	return out
}

// MarkSent removes the item with the given ID after a confirmed upload.
func (s *Spool) MarkSent(id uint64) error {
	for i, it := range s.items {
		if it.ID == id {
			s.sent += it.Bytes
			s.items = append(s.items[:i], s.items[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: spool item %d", ErrNotFound, id)
}

// SentBytes returns the lifetime confirmed-upload volume.
func (s *Spool) SentBytes() int64 { return s.sent }

// OldestAge returns how long the oldest item has been waiting, or zero.
func (s *Spool) OldestAge(now time.Time) time.Duration {
	if len(s.items) == 0 {
		return 0
	}
	return now.Sub(s.items[0].Created)
}
