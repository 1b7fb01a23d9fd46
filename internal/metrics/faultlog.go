package metrics

import "sync"

// FaultRecord is one fault event as it was applied to the cluster. AtNs is
// the simulated time in nanoseconds (metrics stays independent of the sim
// package's Time type).
type FaultRecord struct {
	AtNs   int64
	Kind   string
	Node   int // cluster node id, -1 when the fault is not node-scoped
	Detail string
}

// FaultLog records the fault events applied during a run, in order.
type FaultLog struct {
	mu   sync.Mutex
	recs []FaultRecord
}

// NewFaultLog returns an empty log.
func NewFaultLog() *FaultLog { return &FaultLog{} }

// Record appends one applied fault.
func (l *FaultLog) Record(rec FaultRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// Len returns the number of applied faults.
func (l *FaultLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Reset clears the log.
func (l *FaultLog) Reset() {
	l.mu.Lock()
	l.recs = nil
	l.mu.Unlock()
}
