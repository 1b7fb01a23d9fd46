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

// maxRetries bounds the waves of one Dispatch that re-send a strip it has
// already sent, Exec's and a pipeline round's alike. Such a wave carries
// only the strips a lost reply still owes, so under any single-failure
// plan the first one finishes the job.
const maxRetries = 5

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
			resp, ok := clu.Net.CallCancelable(d, msg, pfs.PollQuantum, deadline, f.Watch(from, to))
			r.Payload, r.Lost = resp.Payload, !ok
			sig.Fire(r)
		})
	}
	return sim.WaitAll(p, sigs)
}

// Dispatch is the one loop an offload's strips go through — Exec's,
// ExecReduce's and every pipeline round's: the Active Storage Client of
// Fig. 2 telling each server which strips to process. It owns the strips
// still owed, places each wave with one layout.Placer under place (the
// layout that places the results), groups them by server in ascending
// order, sends them to port through FanOut and puts a lost reply's strips
// back.
//
// pin, when set, says where a strip's state pins it: a server, or -1 when
// that state is gone and the strip is owed a redo. A wave carries the
// strips owed a redo when there are any, spread over their live holders
// (placed not fresh, at the wave's even share: Placer.Share) with redo
// set; otherwise it carries the fresh strips, each on its pinned server
// or, unpinned, on its live primary. A pipeline round so finishes every
// catch-up before a strip that pulls from the state owners goes out
// (DESIGN.md §14); Exec, with pin nil, never holds both kinds at once.
// The first wave asks every live server, one given no strips too, a
// later one only the servers given strips.
//
// ask is called once a wave with its whole assignment, strips by server,
// and returns the builder of each asked server's request; a Request with
// no Payload is not sent. take folds server srv's reply to its strips and
// returns the strips it still owes — a lost reply's, or those of them no
// ack covers — and an error from it ends the operation. A strip with no
// live copy fails it with NoLiveCopyError, the caller's cue to degrade to
// normal I/O; more than maxRetries re-sending waves fail it with
// pfs.ErrTimeout. It returns the re-sending waves taken, each counted in
// recovery.exec_retries, and how many servers answered.
func (c *Client) Dispatch(p *sim.Proc, port, input string, place layout.Layout, n int64, pin func(s int64) int,
	ask func(assign [][]int64, redo bool) func(srv int) Request,
	take func(srv int, strips []int64, r Reply) (owed []int64, err error)) (retries, servers int, err error) {
	clu := c.fs.Cluster()
	live := func(srv int) bool { return !clu.ServerDown(srv) }
	answered := make([]bool, c.fs.Servers())
	var fresh, redo []int64
	var pinned []int
	if pin != nil {
		pinned = make([]int, n)
	}
	for s := int64(0); s < n; s++ {
		if pin != nil {
			if pinned[s] = pin(s); pinned[s] < 0 {
				redo = append(redo, s)
				continue
			}
		}
		fresh = append(fresh, s)
	}
	for wave := 0; len(fresh)+len(redo) > 0; wave++ {
		strips, isRedo := fresh, len(redo) > 0
		if isRedo {
			// Past the first wave, redo strips are strips a lost reply owes.
			if wave > 0 {
				if retries == maxRetries {
					return retries, servers, fmt.Errorf("active: %d strips unprocessed after %d waves: %w",
						len(fresh)+len(redo), wave, pfs.ErrTimeout)
				}
				retries++
				c.execRetries.Inc()
			}
			strips, redo = redo, nil
		} else {
			fresh = nil
		}
		assign := make([][]int64, c.fs.Servers())
		placer := layout.NewPlacer(place, live)
		if isRedo {
			placer.Share(strips)
		}
		for _, s := range strips {
			srv, ok := 0, true
			if !isRedo && pinned != nil {
				srv = pinned[s]
			} else if srv, ok = placer.Place(s, !isRedo); !ok {
				return retries, servers, &NoLiveCopyError{File: input, Strip: s}
			}
			assign[srv] = append(assign[srv], s)
		}
		build := ask(assign, isRedo)
		var reqs []Request
		for srv, ss := range assign {
			if ss != nil || (wave == 0 && live(srv)) {
				if rq := build(srv); rq.Payload != nil {
					rq.Srv = srv
					reqs = append(reqs, rq)
				}
			}
		}
		for i, r := range FanOut(p, c.fs, c.nodeID, port, reqs, 0) {
			srv := reqs[i].Srv
			owed, err := take(srv, assign[srv], r)
			if err != nil {
				return retries, servers, err
			}
			redo = append(redo, owed...)
			if !r.Lost && !answered[srv] {
				answered[srv] = true
				servers++
			}
		}
		slices.Sort(redo)
	}
	return retries, servers, nil
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
