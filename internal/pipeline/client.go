package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// maxAttempts bounds redispatch attempts within one round. A strip is
// redispatched only when its request was lost and, in the final round, no
// ack covers it; it is then caught up from the durable input, so under any
// single-failure plan the second attempt completes.
const maxAttempts = 6

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
	// Depth is the fusion depth the run priced and ran, and
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
	// admit for any schedule that never writes intermediates back.
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

// Client coordinates pipeline runs from a compute node: it compiles the
// DAG, drives the dispatch rounds strip-set by strip-set, reassigns
// strips with catch-up when a server crash loses in-memory state, and
// merges the terminal reduce partials in canonical strip order.
type Client struct {
	svc         *Service
	fs          *pfs.FileSystem
	nodeID      int
	acks        *acks
	execRetries *metrics.Counter // recovery.exec_retries
}

// NewClient builds a client of the service on the given compute node: it
// compiles plans with the service's registries, as the servers do, and
// receives its runs' acks on the node's ack port.
func (svc *Service) NewClient(nodeID int) *Client {
	return &Client{svc: svc, fs: svc.fs, nodeID: nodeID, acks: svc.acks[nodeID],
		execRetries: svc.fs.Cluster().Counters.Counter("recovery.exec_retries")}
}

// Run executes the DAG over input, committing the grid output into the
// already-created output file, at the fusion depth the prediction core
// prices cheapest for the input's layout. The output commits
// byte-identical to a sequential per-stage evaluation of the same DAG —
// with or without faults, at any depth — because sub-range kernel
// evaluation equals slicing a full-raster pass and catch-up recomputes
// exactly the lost lineage.
func (c *Client) Run(p *sim.Proc, d kernels.DAG, input, output string) (RunResult, error) {
	return c.run(p, d, input, output, 0)
}

// run is Run at the given fusion depth, 0 for the priced one.
func (c *Client) run(p *sim.Proc, d kernels.DAG, input, output string, depth int) (RunResult, error) {
	clu := c.fs.Cluster()
	in, ok := c.fs.Meta(input)
	if !ok {
		return RunResult{}, fmt.Errorf("pipeline: unknown input %q", input)
	}
	if in.Width == 0 || in.ElemSize == 0 {
		return RunResult{}, fmt.Errorf("pipeline: input %q lacks raster metadata", input)
	}
	out, ok := c.fs.Meta(output)
	if !ok {
		return RunResult{}, fmt.Errorf("pipeline: unknown output %q", output)
	}
	if out.Size != in.Size || out.StripSize != in.StripSize {
		return RunResult{}, fmt.Errorf("pipeline: output geometry differs from input")
	}
	pl, err := Compile(d, c.svc.reg, c.svc.combs, c.svc.reds, in.Width, 0)
	if err != nil {
		return RunResult{}, err
	}
	// The fusion depth is priced once, here, and shipped in every stage
	// request: the servers never decide it.
	spec := pl.Spec(clu.Cfg)
	priced, err := predict.Estimate(spec, predict.Params{
		ElemSize:     in.ElemSize,
		StripSize:    in.StripSize,
		FileSize:     in.Size,
		Width:        in.Width,
		OutputFactor: 1,
	}, in.Layout, predict.Observations{})
	if err != nil {
		return RunResult{}, err
	}
	if depth == 0 {
		depth = priced.Depth
	}
	if err := pl.fuse(depth); err != nil {
		return RunResult{}, err
	}
	c.acks.seq++
	token := fmt.Sprintf("%s#%d@%d", d.Name, c.acks.seq, c.nodeID)
	acked := make(map[int64][]float64)
	c.acks.runs[token] = acked
	defer delete(c.acks.runs, token)

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
		pending := make([]int64, 0, strips)
		for s := int64(0); s < strips; s++ {
			pending = append(pending, s)
		}
		catch := make(map[int64]bool)
		if round > 0 {
			for s := int64(0); s < strips; s++ {
				if ownerLost(s) {
					catch[s] = true
				}
			}
		}
		for attempt := 0; len(pending) > 0; attempt++ {
			if attempt >= maxAttempts {
				return RunResult{}, fmt.Errorf("pipeline: %d strips unprocessed after %d attempts in round %d: %w",
					len(pending), attempt, round, pfs.ErrTimeout)
			}
			if attempt > 0 {
				c.execRetries.Inc()
				res.Redispatches++
			}
			var catchStrips, normal []int64
			for _, s := range pending {
				if catch[s] {
					catchStrips = append(catchStrips, s)
				} else {
					normal = append(normal, s)
				}
			}
			// Wave A: catch-up strips recompute their lineage from the
			// durable input where the placer spreads them. They must
			// land before wave B, whose band pulls target the new owners.
			if len(catchStrips) > 0 {
				failed, err := c.dispatch(p, pl, token, d, input, output, round, true, catchStrips, owner, ownerInc, acked, partials, &res)
				if err != nil {
					return RunResult{}, err
				}
				if len(failed) > 0 {
					// Retry everything next attempt: wave B's owner
					// snapshot would point pulls at strips still in
					// flight.
					for _, s := range failed {
						catch[s] = true
					}
					pending = append(failed, normal...)
					sortStrips(pending)
					continue
				}
			}
			pending = pending[:0]
			if len(normal) > 0 {
				failed, err := c.dispatch(p, pl, token, d, input, output, round, false, normal, owner, ownerInc, acked, partials, &res)
				if err != nil {
					return RunResult{}, err
				}
				for _, s := range failed {
					catch[s] = true
				}
				pending = append(pending, failed...)
				sortStrips(pending)
			}
		}
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

	c.release(p, token)

	res.Stages = len(pl.Nodes)
	res.FusedStages = spec.FusedStages(depth)
	res.Rounds = pl.Rounds()
	res.Depth = depth
	res.PredictedSeconds = priced.Depths[depth-1].Seconds
	res.AchievedHaloBytes = res.FetchBytes + res.ExchangeBytes
	res.LowerBoundBytes = priced.LowerBoundBytes
	return res, nil
}

// dispatch sends one wave of stage requests, grouped by assigned server,
// through active.FanOut, and folds successful responses into owner
// tracking, partials, and the run result. It returns the strips whose
// server failed transiently (crash mid-round, lost state) for
// reassignment, except those an ack covers — only final-round runs are
// acked: they are stored on every holder, and their partials are taken
// from acked. Hard errors abort.
func (c *Client) dispatch(p *sim.Proc, pl *Plan, token string, d kernels.DAG, input, output string,
	round int, catchUp bool, strips []int64, owner []int32, ownerInc []uint64,
	acked, partials map[int64][]float64, res *RunResult) ([]int64, error) {
	clu := c.fs.Cluster()
	live := func(srv int) bool { return !clu.ServerDown(srv) }
	out, _ := c.fs.Meta(output)

	// owners is the snapshot wave-B pulls read: the current state owners,
	// with this wave's own strips pointed at their assigned server (a
	// server's pulls never target strips assigned to the same request, but
	// a concurrent peer's may).
	owners := slices.Clone(owner)
	assign := make([][]int64, c.fs.Servers())
	placer := layout.NewPlacer(out.Layout, live)
	for _, s := range strips {
		srv := int(owner[s])
		switch {
		case !catchUp && round > 0:
			// A normal strip past round 0 must run where its state
			// lives; the caller already diverted lost owners to
			// catch-up.
		case !catchUp && srv >= 0 && live(srv):
			// A round-0 redispatch keeps strips that already succeeded
			// on their recorded owner out of this wave entirely; fresh
			// strips fall through to the placer.
		default:
			// A catch-up is recomputed from the input, so the placer
			// spreads it over every live holder; a fresh strip runs on
			// its primary.
			var ok bool
			if srv, ok = placer.Place(s, !catchUp); !ok {
				return nil, &active.NoLiveCopyError{File: input, Strip: s}
			}
		}
		assign[srv] = append(assign[srv], s)
		owners[s] = int32(srv)
	}

	var reqs []active.Request
	for srv, ss := range assign {
		if ss != nil {
			reqs = append(reqs, active.Request{Srv: srv, Size: headerBytes + int64(len(ss))*8,
				Payload: stageReq{Token: token, DAG: d, Input: input, Output: output,
					Round: round, Strips: ss, CatchUp: catchUp, Depth: pl.Prefix, Owners: owners}})
		}
	}
	var failed []int64
	var wave active.Phases
	for i, r := range active.FanOut(p, c.fs, c.nodeID, Port, reqs, 0) {
		srv := reqs[i].Srv
		resp, ok := r.Payload.(stageResp)
		if !ok || (resp.Err != "" && resp.Transient) {
			for _, s := range assign[srv] {
				if partial, ok := acked[s]; ok {
					partials[s] = partial
				} else {
					failed = append(failed, s)
				}
			}
			continue
		}
		if resp.Err != "" {
			if strings.Contains(resp.Err, pfs.ErrNoLiveCopy.Error()) {
				return nil, &active.NoLiveCopyError{File: input, Strip: -1}
			}
			return nil, fmt.Errorf("pipeline: %s", resp.Err)
		}
		for _, s := range assign[srv] {
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
	}
	res.Phases.Add(wave)
	sortStrips(failed)
	return failed, nil
}

// release drops the run's retained state on every live server (one-way;
// a down server's state died with it, and a restart purges by
// incarnation anyway).
func (c *Client) release(p *sim.Proc, token string) {
	clu := c.fs.Cluster()
	for s := 0; s < c.fs.Servers(); s++ {
		toID := clu.StorageID(s)
		if clu.Faults.Down(toID) {
			continue
		}
		clu.Net.Send(p, simnet.Message{
			From:    c.nodeID,
			To:      toID,
			Port:    Port,
			Size:    headerBytes,
			Class:   clu.ClassBetween(c.nodeID, toID),
			Payload: releaseReq{Token: token},
		})
	}
}

func sortStrips(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
