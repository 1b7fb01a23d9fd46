package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// RunResult summarizes one pipeline run: the execution shape the
// compiled plan chose, the achieved halo traffic against the
// composed-offset lower bound, and the merged reduce values when the DAG
// ends in a reduce.
type RunResult struct {
	Stages      int
	FusedStages int
	Rounds      int
	Elements    int64

	FetchOps      int64
	FetchBytes    int64
	CacheHits     int64
	CacheHitBytes int64
	ExchangeOps   int64
	ExchangeBytes int64
	CatchUps      int64
	Redispatches  int64
	// Depth is the fusion depth the run was priced at and ran, and
	// PredictedSeconds what the prediction core priced that depth at
	// (predict.Decision.Depths) — startup included, as in the run's own
	// execution time.
	Depth            int
	PredictedSeconds sim.Time
	// Phases holds, per stage, the busiest server's time in each dispatch
	// wave, summed over the waves: they run one after another, so this is
	// the critical-path decomposition of the run (active.Phases says what
	// adds up within one).
	Phases active.Phases

	// AchievedHaloBytes is every byte the servers moved to satisfy
	// dependence windows (input halo fetches plus inter-stage band
	// pulls); LowerBoundBytes is the minimum the composed DAG offsets
	// admit for any schedule that never writes intermediates back, as the
	// run's price derived it.
	AchievedHaloBytes int64
	LowerBoundBytes   int64

	// Reduce holds the canonical ascending-strip merge of the terminal
	// reduce, nil when the DAG has none.
	Reduce []float64
}

// LowerBoundRatio reports achieved halo bytes over the composed-offset
// minimum (1.0 = optimal; 0 when the bound is zero).
func (r RunResult) LowerBoundRatio() float64 {
	if r.LowerBoundBytes <= 0 {
		return 0
	}
	return float64(r.AchievedHaloBytes) / float64(r.LowerBoundBytes)
}

// Client coordinates pipeline runs from a compute node: it runs a
// compiled plan at the depth its price chose, drives each dispatch round
// through active's one dispatch loop, reassigns strips with catch-up when
// a server crash loses in-memory state, and merges the terminal reduce
// partials in canonical strip order.
type Client struct {
	svc    *Service
	fs     *pfs.FileSystem
	nodeID int
	acks   *acks
	ac     *active.Client // dispatches every round's waves
}

// NewClient builds a client of the service on the given compute node,
// which receives its runs' acks on the node's ack port.
func (svc *Service) NewClient(nodeID int) *Client {
	return &Client{svc: svc, fs: svc.fs, nodeID: nodeID, acks: svc.acks[nodeID],
		ac: active.NewClient(svc.fs, nodeID)}
}

// Run executes the compiled plan over input, committing the grid output
// into the already-created output file, at the fusion depth price chose:
// price is the prediction core's Decision for pl's Spec on the input's
// layout, the one price the request was given. The client prices
// nothing; it fuses pl to price.Depth, ships that depth in every stage
// request, and reports the price beside what the run achieved. The output
// commits byte-identical to a sequential per-stage evaluation of the same
// DAG — with or without faults, at any depth — because sub-range kernel
// evaluation equals slicing a full-raster pass and catch-up recomputes
// exactly the lost lineage.
func (c *Client) Run(p *sim.Proc, pl *Plan, price predict.Decision, input, output string) (RunResult, error) {
	clu := c.fs.Cluster()
	in, out, err := c.fs.RasterPair(input, output)
	if err != nil {
		return RunResult{}, err
	}
	if err := pl.fuse(price.Depth); err != nil {
		return RunResult{}, err
	}
	c.acks.seq++
	token := fmt.Sprintf("%s#%d@%d", pl.DAG.Name, c.acks.seq, c.nodeID)
	acked := make(map[int64][]float64)
	c.acks.runs[token] = acked
	defer delete(c.acks.runs, token)
	// Every exit drops the run's state on the servers, a failed run's too.
	defer c.release(p, token)

	f := clu.Faults
	strips := in.Strips()
	// owner tracks which server's memory holds each strip's retained
	// state; ownerInc the incarnation it was built under, recorded
	// PRE-dispatch so a crash right after the response still reads as a
	// changed incarnation next round.
	owner := make([]int32, strips)
	ownerInc := make([]uint64, strips)
	for s := range owner {
		owner[s] = -1
	}
	ownerLost := func(s int64) bool {
		if owner[s] < 0 {
			return true
		}
		id := clu.StorageID(int(owner[s]))
		return f.Down(id) || f.Incarnation(id) != ownerInc[s]
	}

	var res RunResult
	partials := make(map[int64][]float64)
	for round := 0; round < pl.Rounds(); round++ {
		// A strip past round 0 is pinned to its state owner; one whose
		// owner died or restarted is owed a catch-up.
		var pin func(s int64) int
		if round > 0 {
			pin = func(s int64) int {
				if ownerLost(s) {
					return -1
				}
				return int(owner[s])
			}
		}
		var wave active.Phases
		ask := func(assign [][]int64, catchUp bool) func(int) active.Request {
			// The last wave's busiest server ends before this one starts.
			res.Phases.Add(wave)
			wave = active.Phases{}
			// owners is the snapshot the pulls read: the current state
			// owners, with this wave's own strips pointed at their assigned
			// server (a server's pulls never target strips assigned to the
			// same request, but a concurrent peer's may).
			owners := slices.Clone(owner)
			for srv, ss := range assign {
				for _, s := range ss {
					owners[s] = int32(srv)
				}
			}
			return func(srv int) active.Request {
				ss := assign[srv]
				if ss == nil {
					return active.Request{}
				}
				return active.Request{Size: pfs.HeaderBytes + int64(len(ss))*8,
					Payload: stageReq{Token: token, DAG: pl.DAG, Input: input, Output: output,
						Round: round, Strips: ss, CatchUp: catchUp, Depth: pl.Prefix, Owners: owners}}
			}
		}
		// take folds a reply into owner tracking, partials and the run
		// result. A lost request's strips are owed again, except those an
		// ack covers — only final-round runs are acked: they are stored on
		// every holder, and their partials are taken from acked.
		take := func(srv int, ss []int64, r active.Reply) ([]int64, error) {
			resp, ok := r.Payload.(stageResp)
			if !ok || (resp.Err != "" && resp.Transient) {
				var owed []int64
				for _, s := range ss {
					if partial, ok := acked[s]; ok {
						partials[s] = partial
					} else {
						owed = append(owed, s)
					}
				}
				return owed, nil
			}
			if resp.Err != "" {
				if strings.Contains(resp.Err, pfs.ErrNoLiveCopy.Error()) {
					return nil, &active.NoLiveCopyError{File: input, Strip: -1}
				}
				return nil, fmt.Errorf("pipeline: %s", resp.Err)
			}
			for _, s := range ss {
				owner[s] = int32(srv)
				ownerInc[s] = r.Inc
			}
			for i, s := range resp.PartialStrips {
				partials[s] = resp.Partials[i]
			}
			res.Elements += resp.Elements
			res.FetchOps += resp.RemoteFetches
			res.FetchBytes += resp.RemoteBytes
			res.CacheHits += resp.CacheHits
			res.CacheHitBytes += resp.CacheHitBytes
			res.ExchangeOps += resp.ExchangeOps
			res.ExchangeBytes += resp.ExchangeBytes
			res.CatchUps += resp.CatchUps
			wave.MaxWith(resp.Phases)
			return nil, nil
		}
		retries, _, err := c.ac.Dispatch(p, Port, input, out.Layout, strips, pin, ask, take)
		if err != nil {
			return RunResult{}, err
		}
		res.Phases.Add(wave)
		res.Redispatches += int64(retries)
	}

	if pl.Reduce >= 0 {
		red := pl.Nodes[pl.Reduce].Reducer
		order := make([]int64, 0, len(partials))
		for s := range partials {
			order = append(order, s)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		ordered := make([][]float64, len(order))
		for i, s := range order {
			ordered[i] = partials[s]
		}
		res.Reduce = red.Merge(ordered)
	}

	res.Stages = len(pl.Nodes)
	res.FusedStages = price.FusedStages
	res.Rounds = pl.Rounds()
	res.Depth = price.Depth
	res.PredictedSeconds = price.Depths[price.Depth-1].Seconds
	res.AchievedHaloBytes = res.FetchBytes + res.ExchangeBytes
	res.LowerBoundBytes = price.LowerBoundBytes
	return res, nil
}

// release drops the run's retained state on every server: a live one is
// told (one-way), and a down one's state died with it, so its record goes
// too — else it would outlast the run on a server that restarts later
// (Service.CheckReleased).
func (c *Client) release(p *sim.Proc, token string) {
	clu := c.fs.Cluster()
	for s := 0; s < c.fs.Servers(); s++ {
		toID := clu.StorageID(s)
		if clu.Faults.Down(toID) {
			delete(c.svc.runs[s], token)
			continue
		}
		clu.Net.Send(p, simnet.Message{
			From:    c.nodeID,
			To:      toID,
			Port:    Port,
			Size:    pfs.HeaderBytes,
			Class:   clu.ClassBetween(c.nodeID, toID),
			Payload: releaseReq{Token: token},
		})
	}
}
