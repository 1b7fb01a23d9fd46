package pfs

import (
	"errors"
	"fmt"

	"github.com/hpcio/das/internal/sim"
)

// Sentinel errors for the RPC and failover paths. Callers match them with
// errors.Is; the concrete errors wrap them with request context.
var (
	// ErrUnexpectedResponse marks a reply whose payload type does not
	// belong to the request — a malformed RPC. It fails the request
	// instead of panicking the engine.
	ErrUnexpectedResponse = errors.New("pfs: unexpected response type")
	// ErrServerDown marks a request aimed at (or issued from) a crashed
	// server.
	ErrServerDown = errors.New("pfs: storage server down")
	// ErrCallerDown marks a request whose own node is down, or crashed or
	// restarted while the request was out: the process waiting on it
	// belongs to a dead incarnation, so nothing re-sends the request or
	// fails it over. It wraps ErrServerDown.
	ErrCallerDown = fmt.Errorf("%w: the calling node crashed", ErrServerDown)
	// ErrTimeout marks a request that got no response within the retry
	// policy's budget.
	ErrTimeout = errors.New("pfs: request timed out")
	// ErrStripNotHeld marks a read of a strip the addressed server has no
	// copy of.
	ErrStripNotHeld = errors.New("pfs: strip not held")
	// ErrNoLiveCopy marks a read whose strip has no copy on any live
	// server — the point where failover gives up and the request becomes
	// an I/O error.
	ErrNoLiveCopy = errors.New("pfs: no live copy")
)

// errNotHeld classifies server-local lookup misses so the wire protocol
// can tag them (codeNotFound) and clients can fail over instead of
// treating them as fatal.
var errNotHeld = errors.New("not held")

// errCode classifies an errResp so the client can tell transport-ish
// failures (worth failing over) from semantic ones (caller bugs).
type errCode int

const (
	codeInternal   errCode = iota
	codeNotFound           // the server has no copy of the requested strip
	codeBadRequest         // malformed request: failing over cannot help
)

// failoverEligible reports whether a read error may be cured by asking a
// different holder (or the same one after a restart). A dead caller's is
// not: nothing waits for what it would read.
func failoverEligible(err error) bool {
	if errors.Is(err, ErrCallerDown) {
		return false
	}
	return errors.Is(err, ErrServerDown) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrStripNotHeld)
}

// How hard the file system tries before surfacing an I/O error. The rule
// only engages once the cluster's fault layer is active; fault-free runs
// take the zero-overhead direct path.
const (
	// CallTimeout is the per-attempt response deadline.
	CallTimeout = 250 * sim.Millisecond
	// PollQuantum is how often a waiting request re-checks its target's
	// liveness, so a crash aborts the wait early instead of running out
	// the full timeout.
	PollQuantum = sim.Millisecond
	// CallRetries is how many times a timed-out request is re-sent, and
	// RetryBackoff the delay before the first re-send, doubling per retry.
	CallRetries  = 2
	RetryBackoff = 2 * sim.Millisecond
	// DownRetries and DownBackoff govern the failover loop when no live
	// server holds a strip: the read waits DownBackoff (doubling) and
	// re-scans the holders up to DownRetries times — enough to bridge a
	// planned crash+restart window — before returning ErrNoLiveCopy.
	DownRetries = 3
	DownBackoff = 20 * sim.Millisecond
)
