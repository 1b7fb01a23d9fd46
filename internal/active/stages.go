package active

import (
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

// Tally is what one storage server's stages did for one request: the
// dependent data its assembler fetched or found in the halo cache, and
// how long each stage was busy. An exec's reply carries one, and so does a
// pipeline round's.
type Tally struct {
	RemoteFetches int64 // remote strip (or row-range) requests issued
	RemoteBytes   int64 // bytes fetched from other servers
	CacheHits     int64 // dependent ranges served by the halo-strip cache
	CacheHitBytes int64 // bytes those hits kept off the network
	Phases        Phases
}

// Stages are a storage server's bodies for WalkRuns' stages over one
// request — an exec, or a pipeline round: assemble a run's input band,
// time its compute, store its output. What they did goes to the request's
// Tally; the replica forwards Forward and Store start are joined by
// Drain.
type Stages struct {
	fs       *pfs.FileSystem
	cache    *cache.Manager
	srv      *pfs.Server
	in, out  *pfs.FileMeta
	mode     FetchMode
	tally    *Tally
	forwards []*sim.Signal[error]
	leads    []inflight // the fetches Lead sent, each until its run's Assemble has them all back
	ahead    forwarded  // the forwards Forward sent of the run computing, until its Store
}

// forwarded is what Forward sent of one run's strips before its Store:
// the strips and the holders' signals.
type forwarded struct {
	strips []int64
	sent   []*sim.Signal[error]
}

// NewStages binds the stage bodies to one request on srv: it reads in,
// resolving what srv does not hold by mode through the halo cache c (nil
// for none), stores out, and tallies into t.
func NewStages(fs *pfs.FileSystem, c *cache.Manager, srv *pfs.Server, in, out *pfs.FileMeta, mode FetchMode, t *Tally) *Stages {
	return &Stages{fs: fs, cache: c, srv: srv, in: in, out: out, mode: mode, tally: t}
}

// Assemble builds a run's input band, [run.Lo, run.Hi) plus depth
// elements of halo each side, from the given strips: every one this
// server holds (the run itself, replicas) in one batched disk pass, the
// rest fetched from their owners per the mode. Only the strips listed are
// read — an exec lists those its dependence pattern touches, so a sparse
// stride pattern skips the strips between its endpoints and the band has
// no window there. Nothing is copied: the band is lent the stored strips
// and the fetched buffers themselves, and reads what they held when it
// was lent them whatever replaces a strip before the kernel runs.
//
// A run Lead sent ahead was split by Lead, and strips is ignored: its
// fetches are taken as they come back. A migration may have moved a strip
// onto or off this server since: one gained stays fetched, and one lost
// is fetched now, as a reader racing a retired copy fails over.
func (st *Stages) Assemble(a *sim.Proc, run StripRun, depth int64, strips []int64) (*grid.Band, error) {
	in, srv, clu := st.in, st.srv, st.fs.Cluster()
	i := slices.IndexFunc(st.leads, func(l inflight) bool { return l.first == run.First })
	var nd need
	var lost []remote
	if i >= 0 {
		nd = st.leads[i].need
		nd.local, nd.localLo, lost = st.stillHeld(nd.local, nd.localLo)
	} else {
		nd = st.needs(run, depth, strips)
	}
	band := grid.NewBandLent(in.Width, in.Size/in.ElemSize, run.Lo/in.ElemSize, run.Hi/in.ElemSize, nd.lo, nd.hi)
	if len(nd.local) > 0 {
		t0 := a.Now()
		chunks, err := srv.LocalViewMany(a, in.Name, nd.local)
		if err != nil {
			band.Release()
			return nil, err
		}
		st.tally.Phases.LocalRead += a.Now() - t0
		if clu.Trace != nil {
			clu.Trace.Record(t0, a.Now()-t0, Lane(srv, "read"), "local-read",
				fmt.Sprintf("%d spans for strips %d-%d of %s", len(nd.local), run.First, run.Last, in.Name))
		}
		for i, chunk := range chunks {
			band.Lend(nd.localLo[i]/in.ElemSize, chunk) // a view of the stored strip: never released
		}
	}
	fetchStart := a.Now()
	var sigs []*sim.Signal[fetched]
	if i >= 0 {
		sigs = append(st.leads[i].sigs, st.send(a, lost)...)
	} else {
		sigs = st.send(a, nd.remote)
	}
	results := sim.WaitAll(a, sigs)
	if i >= 0 {
		// Back, every one: Drain has nothing of this run's left to join.
		st.leads = slices.Delete(st.leads, i, i+1)
	}
	for _, got := range results {
		if got.err != nil {
			band.Release()
			return nil, got.err
		}
	}
	for _, got := range results {
		if got.hit {
			st.tally.CacheHits++
			st.tally.CacheHitBytes += int64(len(got.data))
		} else {
			st.tally.RemoteFetches++
			st.tally.RemoteBytes += int64(len(got.data))
		}
		band.Lend(got.gotLo/in.ElemSize, got.data) // the owner's strip or a cache entry's window of it: never released
	}
	st.tally.Phases.Fetch += a.Now() - fetchStart
	if clu.Trace != nil && len(sigs) > 0 {
		clu.Trace.Record(fetchStart, a.Now()-fetchStart, Lane(srv, "read"), "fetch",
			fmt.Sprintf("%d dependent strips for strips %d-%d (%s)", len(sigs), run.First, run.Last, st.mode))
	}
	return band, nil
}

// Lead splits a run's strips as Assemble would and sends its
// dependent-strip fetches ahead of its assembly, for the run's Assemble to
// take with the split. An exec walk sends run i+1's when it starts
// assembling run i: a fetch's round trip outlasts a run's share of the
// ingress NIC, so with only one run's fetches out the NIC idles. Fetches
// a failed walk leaves out are joined by Drain.
func (st *Stages) Lead(a *sim.Proc, run StripRun, depth int64, strips []int64) {
	nd := st.needs(run, depth, strips)
	st.leads = append(st.leads, inflight{first: run.First, need: nd, sigs: st.send(a, nd.remote)})
}

// need is what a run's band wants of the strips listed: its element range
// [lo, hi), halo included; the spans this server holds, with the byte
// offset each starts at; and the ranges it must fetch.
type need struct {
	lo, hi  int64
	local   []pfs.Span
	localLo []int64
	remote  []remote
}

// remote is a byte range [needLo, needHi) of a strip another server holds.
type remote struct{ strip, needLo, needHi int64 }

// needs splits what run's band, depth elements of halo each side, wants of
// the strips listed into what this server holds and what it must fetch.
func (st *Stages) needs(run StripRun, depth int64, strips []int64) need {
	in, srv := st.in, st.srv
	var nd need
	nd.lo, nd.hi = grid.HaloRange(run.Lo/in.ElemSize, run.Hi/in.ElemSize, depth, in.Size/in.ElemSize)
	for _, t := range strips {
		tLo, tHi := in.StripBounds(t)
		needLo, needHi := max(nd.lo*in.ElemSize, tLo), min(nd.hi*in.ElemSize, tHi)
		if needHi <= needLo {
			continue
		}
		if srv.Holds(in.Name, t) {
			nd.local = append(nd.local, pfs.Span{Strip: t, Lo: needLo - tLo, Hi: needHi - tLo})
			nd.localLo = append(nd.localLo, needLo)
		} else {
			nd.remote = append(nd.remote, remote{strip: t, needLo: needLo, needHi: needHi})
		}
	}
	return nd
}

// stillHeld keeps the local spans of a need whose strips this server
// still holds, in place, and returns the ranges of the others, to fetch.
func (st *Stages) stillHeld(local []pfs.Span, localLo []int64) ([]pfs.Span, []int64, []remote) {
	var lost []remote
	n := 0
	for k, sp := range local {
		if st.srv.Holds(st.in.Name, sp.Strip) {
			local[n], localLo[n] = sp, localLo[k]
			n++
			continue
		}
		lost = append(lost, remote{strip: sp.Strip, needLo: localLo[k], needHi: localLo[k] + sp.Hi - sp.Lo})
	}
	return local[:n], localLo[:n], lost
}

// inflight is one run's dependent-strip fetches, sent by Lead with the
// split they came from, and not yet all taken.
type inflight struct {
	first int64 // the run's first strip
	need  need
	sigs  []*sim.Signal[fetched]
}

// fetched is one dependent range as fetch resolved it.
type fetched struct {
	data  []byte
	gotLo int64
	hit   bool
	err   error
}

// send starts dependent-strip fetches, one process each. A run's go out
// concurrently (the requests target distinct owners); the run still
// cannot compute until every response arrives, and the amplified traffic
// still serializes on the NICs and disks it crosses.
func (st *Stages) send(a *sim.Proc, remotes []remote) []*sim.Signal[fetched] {
	sigs := make([]*sim.Signal[fetched], len(remotes))
	for i, rm := range remotes {
		sig := sim.NewSignal[fetched](st.fs.Cluster().Eng, "as-fetch")
		sigs[i] = sig
		a.Spawn("as-fetch", func(f *sim.Proc) {
			data, gotLo, hit, err := st.fetch(f, rm.strip, rm.needLo, rm.needHi)
			sig.Fire(fetched{data: data, gotLo: gotLo, hit: hit, err: err})
		})
	}
	return sigs
}

// fetch resolves a byte range of a strip this server does not hold.
// With the cache subsystem attached, the server's halo-strip cache is
// consulted first: a hit serves the range from local memory (free on the
// DES clock — the bytes already sit on this node); a miss pays the remote
// fetch, then feeds the bytes and the observed latency back to the cache.
// Either way data is lent — the owner's stored strip or a cache entry's
// window of it — for the caller's band to read in place.
func (st *Stages) fetch(p *sim.Proc, t, needLo, needHi int64) (data []byte, gotLo int64, hit bool, err error) {
	in, srv := st.in, st.srv
	if st.mode == LocalOnly {
		return nil, 0, false, fmt.Errorf("active: server %d needs strip %d of %q but mode is local-only (layout violates the locality the predictor verified)",
			srv.Index(), t, in.Name)
	}
	owner := in.Layout.Primary(t)
	tLo, tHi := in.StripBounds(t)
	// The cached range is strip-relative: whole strips want [0, len),
	// row fetches want the needed slice.
	wantLo, wantHi := int64(0), tHi-tLo
	if st.mode == FetchRows {
		wantLo, wantHi = needLo-tLo, needHi-tLo
	}
	if st.cache != nil {
		if cached, ok := st.cache.Get(srv.Index(), in.Name, t, wantLo, wantHi); ok {
			return cached, tLo + wantLo, true, nil
		}
	}
	fetchStart := p.Now()
	switch st.mode {
	case FetchWholeStrips:
		data, err = st.fs.ReadStripFrom(p, srv.NodeID(), owner, in.Name, t, 0, 0)
	case FetchRows:
		data, err = st.fs.ReadStripFrom(p, srv.NodeID(), owner, in.Name, t, needLo-tLo, needHi-tLo)
	default:
		return nil, 0, false, fmt.Errorf("active: unsupported fetch mode %v", st.mode)
	}
	if err != nil {
		return nil, 0, false, err
	}
	if st.cache != nil {
		st.cache.RecordFetch(srv.Index(), in.Name, t, wantLo, data, p.Now()-fetchStart)
	}
	return data, tLo + wantLo, false, nil
}

// Compute books d of CPU on the request's process p: what op costs over
// elems elements, after the real computation on real bytes has run.
func (st *Stages) Compute(p *sim.Proc, d sim.Time, op string, elems int64) {
	start := p.Now()
	p.Sleep(d)
	st.tally.Phases.Compute += p.Now() - start
	if clu := st.fs.Cluster(); clu.Trace != nil {
		clu.Trace.Record(start, p.Now()-start, Lane(st.srv, "compute"), "compute",
			fmt.Sprintf("%s over %d elements", op, elems))
	}
}

// Parts splits a run into the parts its compute takes in turn, each the
// ascending ranges of consecutive strips it covers: the strips the output
// layout has this server owe another holder a copy of (pfs.Server.Owes)
// first, then the interior. Their copies can then leave (Forward) while
// the interior computes, so a run's forwards are back sooner after its
// compute ends — most of all the last run's, which the reply waits for.
// A run with no owed strip, or with nothing but owed strips, is one part:
// itself.
func (st *Stages) Parts(run StripRun) [][]StripRun {
	var owed, interior []StripRun
	for t := run.First; t <= run.Last; t++ {
		part := &interior
		if st.srv.Owes(st.out.Name, t) {
			part = &owed
		}
		lo, hi := st.out.StripBounds(t)
		if n := len(*part); n > 0 && (*part)[n-1].Last == t-1 {
			(*part)[n-1].Last, (*part)[n-1].Hi = t, hi
			continue
		}
		*part = append(*part, StripRun{First: t, Last: t, Lo: lo, Hi: hi})
	}
	if len(owed) == 0 || len(interior) == 0 {
		return [][]StripRun{{run}}
	}
	return [][]StripRun{owed, interior}
}

// Forward sends, on p, the copies part's strips are owed by their other
// holders under the output layout (pfs.Server.Forward), the moment the
// part's compute has ended; vals is the whole run's output. The run's
// Store sends only what no part has, and its stored hook waits for these
// too.
func (st *Stages) Forward(p *sim.Proc, run StripRun, part []StripRun, vals []float64) {
	strips, chunks := st.outStrips(run, part, vals)
	// Forward fails only on a file it does not know, and then so does the
	// run's Store, which reports it.
	sent, _ := st.srv.Forward(p, st.out.Name, strips, chunks)
	st.forwards = append(st.forwards, sent...)
	st.ahead.strips = append(st.ahead.strips, strips...)
	st.ahead.sent = append(st.ahead.sent, sent...)
}

// outStrips lists the output strips of ranges, within run, each with its
// bytes of vals, the run's output.
func (st *Stages) outStrips(run StripRun, ranges []StripRun, vals []float64) ([]int64, [][]byte) {
	n := int64(0)
	for _, r := range ranges {
		n += r.Last - r.First + 1
	}
	outBytes := grid.Bytes(vals)
	strips, chunks := make([]int64, 0, n), make([][]byte, 0, n)
	for _, r := range ranges {
		for t := r.First; t <= r.Last; t++ {
			tLo, tHi := st.out.StripBounds(t)
			strips = append(strips, t)
			chunks = append(chunks, outBytes[tLo-run.Lo:tHi-run.Lo])
		}
	}
	return strips, chunks
}

// Store hands a run's output, computed on p, to the store. The strips'
// other holders under the output layout are sent their copies now
// (pfs.Server.Forward), when compute ends and one run ahead of the local
// write — all but those a part's Forward sent earlier: started after the
// write, a run's forwards would convoy on the FIFO NICs once compute
// stops pacing them. The returned write stores every strip of the run
// locally in one batched disk pass, WalkRuns' write stage.
// vals becomes the stored strips by reference, here and on the holders:
// nothing may write it again. stored, when non-nil, is called once the
// local write has returned and every forward of the run has fired, all
// without an error — the run is then on every holder it is owed to — and
// never when any of them failed; nothing waits for it.
func (st *Stages) Store(p *sim.Proc, run StripRun, vals []float64, stored func()) (write func(w *sim.Proc) error) {
	srv, out, clu := st.srv, st.out, st.fs.Cluster()
	ahead := st.ahead
	st.ahead = forwarded{}
	strips, chunks := st.outStrips(run, []StripRun{run}, vals)
	left, leftChunks := strips, chunks
	if len(ahead.strips) > 0 {
		left, leftChunks = nil, nil
		for i, t := range strips {
			if !slices.Contains(ahead.strips, t) {
				left, leftChunks = append(left, t), append(leftChunks, chunks[i])
			}
		}
	}
	sent, err := srv.Forward(p, out.Name, left, leftChunks)
	if err != nil {
		return func(*sim.Proc) error { return err }
	}
	st.forwards = append(st.forwards, sent...)
	sent = append(ahead.sent, sent...)
	local := func(w *sim.Proc) error {
		writeStart := w.Now()
		if err := srv.LocalWriteMany(w, out.Name, strips, chunks); err != nil {
			return err
		}
		st.tally.Phases.Write += w.Now() - writeStart
		if clu.Trace != nil {
			clu.Trace.Record(writeStart, w.Now()-writeStart, Lane(srv, "write"), "write",
				fmt.Sprintf("%d output strips of %s", len(strips), out.Name))
		}
		return nil
	}
	if stored == nil {
		return local
	}
	return func(w *sim.Proc) error {
		if err := local(w); err != nil {
			return err
		}
		w.Spawn("as-stored", func(a *sim.Proc) {
			for _, err := range sim.WaitAll(a, sent) {
				if err != nil {
					return
				}
			}
			stored()
		})
		return nil
	}
}

// Stalled is WalkRuns' stalled for a walk on p: the wait goes to Stall,
// traced on the compute lane it holds up.
func (st *Stages) Stalled(p *sim.Proc) func(since sim.Time) {
	return func(since sim.Time) {
		st.tally.Phases.Stall += p.Now() - since
		if clu := st.fs.Cluster(); clu.Trace != nil {
			clu.Trace.Record(since, p.Now()-since, Lane(st.srv, "compute"), "stall", "waiting for the next band or the last write")
		}
	}
}

// Drain joins, on the request's process p, the replica forwards Store
// started, once the walk has returned err, and any fetches Lead sent that
// no assembly waited for: the failed walk never reached their run, or its
// local read failed first. The request is answered, error or
// not, only once they have all come back: when the reply leaves is
// simulated behaviour, and under a crash plan it decides whether the reply
// is delivered at all. It returns err, or else the first forward's error.
func (st *Stages) Drain(p *sim.Proc, err error) error {
	for _, led := range st.leads {
		sim.WaitAll(p, led.sigs)
	}
	st.leads = nil
	forwardStart := p.Now()
	for _, ferr := range sim.WaitAll(p, st.forwards) {
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	st.tally.Phases.Forward += p.Now() - forwardStart
	if clu := st.fs.Cluster(); clu.Trace != nil && len(st.forwards) > 0 {
		clu.Trace.Record(forwardStart, p.Now()-forwardStart, Lane(st.srv, "forward"), "forward-wait",
			fmt.Sprintf("%d replica batches of %s", len(st.forwards), st.out.Name))
	}
	return nil
}

// Lane names one stage of a storage server for trace events. The stages
// overlap, so each is an actor of its own: no actor's timeline holds two
// intervals at once.
func Lane(srv *pfs.Server, stage string) string {
	return fmt.Sprintf("server-%d/%s", srv.Index(), stage)
}
