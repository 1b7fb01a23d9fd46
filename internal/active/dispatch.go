package active

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// maxDispatchRounds bounds how many times the client reassigns strips
// after mid-execution crashes before giving up. Each round only touches
// the strips whose server died, so under any single-failure plan round
// two finishes the job.
const maxDispatchRounds = 4

// NoLiveCopyError reports that an offloaded operation cannot run because a
// strip of its input has no copy on any live server. It unwraps to
// pfs.ErrNoLiveCopy, so callers can match either the sentinel or the
// concrete strip. Strip is -1 when a server-side fetch hit the condition
// and only the message crossed the wire.
type NoLiveCopyError struct {
	File  string
	Strip int64
}

func (e *NoLiveCopyError) Error() string {
	if e.Strip < 0 {
		return fmt.Sprintf("active: %s: %v", e.File, pfs.ErrNoLiveCopy)
	}
	return fmt.Sprintf("active: %s strip %d: %v", e.File, e.Strip, pfs.ErrNoLiveCopy)
}

func (e *NoLiveCopyError) Unwrap() error { return pfs.ErrNoLiveCopy }

// Request is one RPC of a fan-out: Payload, Size bytes on the wire, to
// storage server Srv.
type Request struct {
	Srv     int
	Payload any
	Size    int64
}

// Reply is a fan-out request's answer: the response payload and the
// incarnation the target had when the request left. Lost marks a request
// whose reply never came — an end crashed or restarted first, or the
// deadline passed — and then Payload is nil.
type Reply struct {
	Payload any
	Inc     uint64
	Lost    bool
}

// FanOut sends every request from node from to port on its server at
// once, one process each, and returns the replies in request order once
// all are in. Without a fault plan a request is a plain call. Under one it
// waits polling every retry quantum and gives up once either end has
// crashed or restarted since it left, or once deadline (when > 0) has
// passed: no process stays parked on a reply that will never come. Every
// offload's requests go through here — Exec's, ExecReduce's, a pipeline
// round's and its band pulls.
func FanOut(p *sim.Proc, fs *pfs.FileSystem, from int, port string, reqs []Request, deadline sim.Time) []Reply {
	clu := fs.Cluster()
	f := clu.Faults
	sigs := make([]*sim.Signal[Reply], len(reqs))
	for i, rq := range reqs {
		sig := sim.NewSignal[Reply](clu.Eng, "fan-out")
		sigs[i] = sig
		p.Spawn("fan-out", func(d *sim.Proc) {
			to := clu.StorageID(rq.Srv)
			msg := simnet.Message{From: from, To: to, Port: port, Size: rq.Size,
				Class: clu.ClassBetween(from, to), Payload: rq.Payload}
			r := Reply{Inc: f.Incarnation(to)}
			if !f.Active() {
				r.Payload = clu.Net.Call(d, msg).Payload
				sig.Fire(r)
				return
			}
			resp, ok := clu.Net.CallCancelable(d, msg, fs.Retry.Quantum, deadline, f.Watch(from, to))
			r.Payload, r.Lost = resp.Payload, !ok
			sig.Fire(r)
		})
	}
	return sim.WaitAll(p, sigs)
}

// dispatch is the one loop an offload's strips go through, Exec's and
// ExecReduce's alike: the Active Storage Client of Fig. 2 telling each
// server which strips to process. Each round places its pending strips
// with one layout.Placer under place, the layout that places the results:
// round one's strips are fresh, so each runs on its primary while that is
// live; a later round's, whose reply was lost, spread over their live
// holders. Round one asks every live server, one given no strips too; a
// later round asks, in ascending order, only the servers given strips.
// ask builds server srv's request; take folds a reply, and an error from
// it ends the operation. A strip with no live copy fails it with
// NoLiveCopyError — the caller's cue to degrade to normal I/O. It returns
// the rounds taken and how many servers answered.
func (c *Client) dispatch(p *sim.Proc, input string, place layout.Layout, n int64,
	ask func(srv int, strips []int64) any, take func(payload any) error) (rounds, servers int, err error) {
	clu := c.fs.Cluster()
	live := func(srv int) bool { return !clu.ServerDown(srv) }
	answered := make([]bool, c.fs.Servers())
	pending := make([]int64, n)
	for s := range pending {
		pending[s] = int64(s)
	}
	for ; len(pending) > 0; rounds++ {
		if rounds >= maxDispatchRounds {
			return rounds, servers, fmt.Errorf("active: %d strips unprocessed after %d dispatch rounds: %w",
				len(pending), rounds, pfs.ErrTimeout)
		}
		assign := make([][]int64, c.fs.Servers())
		placer := layout.NewPlacer(place, live)
		for _, s := range pending {
			srv, ok := placer.Place(s, rounds == 0)
			if !ok {
				return rounds, servers, &NoLiveCopyError{File: input, Strip: s}
			}
			assign[srv] = append(assign[srv], s)
		}
		var reqs []Request
		for srv, strips := range assign {
			if strips != nil || (rounds == 0 && live(srv)) {
				reqs = append(reqs, Request{Srv: srv, Payload: ask(srv, strips), Size: headerBytes})
			}
		}
		pending = pending[:0]
		for i, r := range FanOut(p, c.fs, c.nodeID, Port, reqs, 0) {
			srv := reqs[i].Srv
			if r.Lost {
				// The server crashed mid-execution: its strips return to the
				// pool for the next round.
				c.execRetries.Inc()
				pending = append(pending, assign[srv]...)
				continue
			}
			if err := take(r.Payload); err != nil {
				return rounds + 1, servers, err
			}
			if !answered[srv] {
				answered[srv] = true
				servers++
			}
		}
		slices.Sort(pending)
	}
	return rounds, servers, nil
}

// remoteErr is the client's error for a server's error message. A
// server-side dependent-strip fetch that found no live holder stays typed,
// though only the message crossed the wire.
func remoteErr(input, msg string) error {
	if strings.Contains(msg, pfs.ErrNoLiveCopy.Error()) {
		return &NoLiveCopyError{File: input, Strip: -1}
	}
	return fmt.Errorf("active: %s", msg)
}
