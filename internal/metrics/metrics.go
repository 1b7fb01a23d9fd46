// Package metrics collects byte- and time-level accounting for a simulated
// DAS run. The traffic counters deliberately distinguish the classes the
// paper argues about: client↔server traffic (what Traditional Storage
// pays), server↔server traffic (what Normal Active Storage pays for
// dependent data), and disk traffic. Every other count a run reports is a
// named counter in the platform's Registry.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// TrafficClass labels a byte counter by which part of the system moved the
// bytes.
type TrafficClass int

const (
	// ClientToServer counts bytes written from compute nodes to storage
	// nodes (normal I/O writes, request payloads).
	ClientToServer TrafficClass = iota
	// ServerToClient counts bytes read from storage nodes to compute nodes
	// (normal I/O reads, active-storage results returned to clients).
	ServerToClient
	// ServerToServer counts bytes moved between storage nodes: dependent
	// strips under NAS, replica maintenance under DAS, reconfiguration.
	ServerToServer
	// DiskRead and DiskWrite count bytes through storage-node disks.
	DiskRead
	DiskWrite
	numClasses
)

var classNames = [...]string{
	ClientToServer: "client→server",
	ServerToClient: "server→client",
	ServerToServer: "server↔server",
	DiskRead:       "disk read",
	DiskWrite:      "disk write",
}

// String returns the human-readable class label.
func (c TrafficClass) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Classes lists every traffic class in display order.
func Classes() []TrafficClass {
	out := make([]TrafficClass, numClasses)
	for i := range out {
		out[i] = TrafficClass(i)
	}
	return out
}

// Traffic accumulates bytes per class. The simulator core is
// single-threaded, but collectors may be read from test goroutines, so
// the counters are atomics — on the engine hot path that is one lock-free
// add per transfer where a mutex would cost a lock/unlock pair.
type Traffic struct {
	bytes [numClasses]atomic.Int64
	ops   [numClasses]atomic.Int64
}

// NewTraffic returns an empty collector.
func NewTraffic() *Traffic { return &Traffic{} }

// Add records n bytes of traffic in class c. Negative n panics: counters
// only grow.
func (t *Traffic) Add(c TrafficClass, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative traffic %d for %v", n, c))
	}
	t.bytes[c].Add(n)
	t.ops[c].Add(1)
}

// Bytes returns the byte total for class c.
func (t *Traffic) Bytes(c TrafficClass) int64 {
	return t.bytes[c].Load()
}

// Ops returns the number of recorded operations for class c.
func (t *Traffic) Ops(c TrafficClass) int64 {
	return t.ops[c].Load()
}

// NetworkBytes returns the sum over the three network classes.
func (t *Traffic) NetworkBytes() int64 {
	return t.bytes[ClientToServer].Load() + t.bytes[ServerToClient].Load() + t.bytes[ServerToServer].Load()
}

// Reset zeroes every counter.
func (t *Traffic) Reset() {
	for c := range t.bytes {
		t.bytes[c].Store(0)
		t.ops[c].Store(0)
	}
}

// Snapshot returns a copy of all byte counters keyed by class.
func (t *Traffic) Snapshot() map[TrafficClass]int64 {
	out := make(map[TrafficClass]int64, numClasses)
	for c := TrafficClass(0); c < numClasses; c++ {
		out[c] = t.bytes[c].Load()
	}
	return out
}

// SnapshotsEqual reports whether two Snapshot results record identical
// byte counts for every class. Identity checks between engine
// constructions use it as the traffic leg of "byte-identical simulation".
func SnapshotsEqual(a, b map[TrafficClass]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for c, v := range a {
		if b[c] != v {
			return false
		}
	}
	return true
}

// String renders the non-zero counters, ordered by class, e.g.
// "client→server=24.0MiB server↔server=1.5MiB".
func (t *Traffic) String() string {
	snap := t.Snapshot()
	var parts []string
	for c := TrafficClass(0); c < numClasses; c++ {
		if snap[c] != 0 {
			parts = append(parts, fmt.Sprintf("%v=%s", c, FormatBytes(snap[c])))
		}
	}
	if len(parts) == 0 {
		return "(no traffic)"
	}
	return strings.Join(parts, " ")
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.1fGiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.1fMiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.1fKiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// SortedClasses returns the classes with non-zero byte counts, largest
// first — handy for reporting the dominant traffic class of a scheme.
func (t *Traffic) SortedClasses() []TrafficClass {
	snap := t.Snapshot()
	var classes []TrafficClass
	for c, b := range snap {
		if b > 0 {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		bi, bj := snap[classes[i]], snap[classes[j]]
		if bi != bj {
			return bi > bj
		}
		return classes[i] < classes[j]
	})
	return classes
}
