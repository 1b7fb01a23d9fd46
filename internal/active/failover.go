package active

import (
	"fmt"
	"sort"
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

// execDegraded dispatches an offloaded operation while the fault layer is
// active. Every input strip is assigned to its first live holder (primary
// when up, else a replica holder), each engaged server receives its
// explicit strip list, and a server that crashes mid-execution gets its
// strips reassigned in the next round. A strip with no live copy fails the
// operation with NoLiveCopyError — the caller's cue to degrade to normal
// I/O.
func (c *Client) execDegraded(p *sim.Proc, op, input, output string, mode FetchMode) (ExecStats, error) {
	clu := c.fs.Cluster()
	in, ok := c.fs.Meta(input)
	if !ok {
		return ExecStats{}, fmt.Errorf("active: unknown input %q", input)
	}
	out, ok := c.fs.Meta(output)
	if !ok {
		return ExecStats{}, fmt.Errorf("active: unknown output %q", output)
	}
	f := clu.Faults
	quantum := c.fs.Retry.Quantum
	pending := make([]int64, 0, in.Strips())
	for s := int64(0); s < in.Strips(); s++ {
		pending = append(pending, s)
	}
	var stats ExecStats
	engaged := make(map[int]bool)
	for round := 0; len(pending) > 0; round++ {
		if round >= maxDispatchRounds {
			return ExecStats{}, fmt.Errorf("active: %d strips unprocessed after %d dispatch rounds: %w",
				len(pending), round, pfs.ErrTimeout)
		}
		stats.Rounds = round + 1
		// LocalOnly assumes the verified layout's placement, which a dead
		// server invalidates: a failover holder's halo can live off-node.
		// Escalate to whole-strip fetches so the run still completes.
		effMode := mode
		if effMode == LocalOnly && clu.AnyStorageDown() {
			effMode = FetchWholeStrips
		}
		assign := make(map[int][]int64)
		var order []int
		// Assignment follows the OUTPUT layout: identical to the input's
		// when the layouts agree, and the stable frozen snapshot when the
		// input is mid-migration (where the input's shifting placement
		// could double- or zero-assign a strip between rounds).
		for _, s := range pending {
			owner, ok := layout.FirstLiveHolder(out.Layout, s, func(srv int) bool { return !clu.ServerDown(srv) })
			if !ok {
				return ExecStats{}, &NoLiveCopyError{File: input, Strip: s}
			}
			if _, seen := assign[owner]; !seen {
				order = append(order, owner)
			}
			assign[owner] = append(assign[owner], s)
		}
		sort.Ints(order)
		type result struct {
			srv    int
			strips []int64
			resp   *execResp
			ok     bool
		}
		sigs := make([]*sim.Signal[result], 0, len(order))
		for _, srv := range order {
			srv, strips := srv, assign[srv]
			done := sim.NewSignal[result](clu.Eng, "as-exec-degraded")
			sigs = append(sigs, done)
			p.Spawn("as-dispatch-degraded", func(d *sim.Proc) {
				toID := clu.StorageID(srv)
				inc := f.Incarnation(toID)
				crashed := func() bool { return f.Down(toID) || f.Incarnation(toID) != inc }
				resp, delivered := clu.Net.CallCancelable(d, simnet.Message{
					From:    c.nodeID,
					To:      toID,
					Port:    Port,
					Size:    headerBytes,
					Class:   clu.ClassBetween(c.nodeID, toID),
					Payload: execReq{Op: op, Input: input, Output: output, Mode: effMode, Strips: strips},
				}, quantum, 0, crashed)
				r := result{srv: srv, strips: strips}
				if delivered {
					r.resp, r.ok = resp.Payload.(*execResp)
				}
				done.Fire(r)
			})
		}
		pending = pending[:0]
		for _, r := range sim.WaitAll(p, sigs) {
			if !r.ok {
				// The server crashed mid-execution (or replied garbage):
				// its strips return to the pool for the next round.
				c.execRetries.Inc()
				pending = append(pending, r.strips...)
				continue
			}
			if r.resp.Err != "" {
				if strings.Contains(r.resp.Err, pfs.ErrNoLiveCopy.Error()) {
					// A server-side dependent-strip fetch found no live
					// holder; only the error string crossed the wire.
					return ExecStats{}, &NoLiveCopyError{File: input, Strip: -1}
				}
				return ExecStats{}, fmt.Errorf("active: %s", r.resp.Err)
			}
			if !engaged[r.srv] {
				engaged[r.srv] = true
				stats.Servers++
			}
			stats.Strips += r.resp.Strips
			stats.Elements += r.resp.Elements
			stats.RemoteFetches += r.resp.RemoteFetches
			stats.RemoteBytes += r.resp.RemoteBytes
			stats.CacheHits += r.resp.CacheHits
			stats.CacheHitBytes += r.resp.CacheHitBytes
			stats.PhaseMax.MaxWith(r.resp.Phases)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	}
	return stats, nil
}
