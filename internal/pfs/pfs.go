// Package pfs implements the striped parallel file system substrate the
// DAS architecture runs on: a PVFS2-like system with a metadata service,
// one data server process per storage node, 64 KiB default strips, and
// pluggable data distributions (layout.Layout). Unlike stock PVFS2, the
// placement policy is per-file and replica-aware, and a file can be
// migrated between layouts in place — the two extensions §III-A of the
// paper relies on ("Parallel file systems such as PVFS2 provide the
// required APIs").
package pfs

import (
	"errors"
	"fmt"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// DefaultStripSize is the PVFS2 default the paper quotes (§III-C).
const DefaultStripSize = 64 * 1024

// Port is the mailbox name data servers listen on.
const Port = "pfs"

// HeaderBytes approximates the wire overhead of one request or response,
// on the pfs wire and on every service built over it.
const HeaderBytes = 128

// FileMeta is the metadata service's record for one file.
type FileMeta struct {
	Name      string
	Size      int64
	StripSize int64
	Layout    layout.Layout
	// Raster annotations consumed by the active storage layer; zero for
	// plain byte files.
	Width, Height int
	ElemSize      int64
}

// Strips returns the number of strips the file occupies.
func (m *FileMeta) Strips() int64 {
	return (m.Size + m.StripSize - 1) / m.StripSize
}

// StripBounds returns the byte range [lo, hi) of strip s.
func (m *FileMeta) StripBounds(s int64) (lo, hi int64) {
	lo = s * m.StripSize
	hi = lo + m.StripSize
	if hi > m.Size {
		hi = m.Size
	}
	return lo, hi
}

// Locator builds the element locator for a raster file.
func (m *FileMeta) Locator() layout.Locator {
	elem := m.ElemSize
	if elem == 0 {
		elem = 1
	}
	return layout.NewLocator(elem, m.StripSize, m.Layout)
}

// FileSystem is the deployed parallel file system: metadata plus one
// running server per storage node.
type FileSystem struct {
	clu     *cluster.Cluster
	servers []*Server
	meta    map[string]*FileMeta
	// invalidator, when set, is told about every strip mutation so stale
	// halo-cache copies die with the data they shadow. Declared as a
	// narrow interface so pfs does not depend on the cache package.
	invalidator StripInvalidator
	// latObs, when set, receives per-RPC latency samples from the client
	// call paths, tagged migration/non-migration (see LatencyObserver).
	latObs LatencyObserver
	// readCallFree and writeCallFree recycle task-based client call state
	// (async.go).
	readCallFree  []*readCall
	writeCallFree []*writeCall

	// inflight counts, per server, the client RPCs currently outstanding
	// against it — queued at its NIC or disk, or in service. It is the
	// queue-depth signal the multi-tenant admission control sheds on: the
	// offered load a new request would join. Counters move on the engine
	// goroutine only (one process runs at a time), so plain ints suffice.
	inflight []int
	// queueObs, when set, receives one (server, depth) sample per client
	// RPC as it is issued, with the depth including the new request —
	// queue length as seen by arrivals.
	queueObs func(srv, depth int)

	// readReqFree, writeReqFree and readRespFree recycle the data
	// payloads. Boxing a request or response value into a message's
	// Payload field allocates on every RPC — the dominant allocation at
	// scale — so the wire types travel as pooled pointers instead, their
	// slices reused with them: the producer fills one, the consumer reads
	// it and re-pools it. Requests stop being re-pooled once faults
	// activate (see readReqPut); payloads dropped on fault paths fall to
	// the GC, which only costs a pool miss.
	readReqFree  []*readReq
	writeReqFree []*writeReq
	readRespFree []*readResp

	// The recovery.* counters the fault paths move.
	timeouts, retries, failoverReads, skippedForwards *metrics.Counter
}

// StripInvalidator receives strip-mutation notifications from the write
// path. The halo-strip cache manager implements it; the hook fires after
// the store accepts the new bytes, before the write completes.
type StripInvalidator interface {
	InvalidateStrip(file string, strip int64)
	InvalidateFile(file string)
}

// SetInvalidator wires a strip-mutation listener (nil disables).
func (fs *FileSystem) SetInvalidator(inv StripInvalidator) { fs.invalidator = inv }

// LatencyObserver receives one sample per successful client-side data RPC:
// the server that served it, whether the RPC moved restripe-migration
// traffic, and its observed DES latency. The unified p99 controller
// implements it; migration-tagged samples must never enter tuning
// decisions — background copies inflating the latency signal is exactly
// the feedback loop the controller exists to break. Declared as a narrow
// interface, like StripInvalidator, so pfs does not depend on the control
// package.
//
// The task-based calls (async.go) are not sampled: they are used only by
// the scale experiment, which runs without the controller.
type LatencyObserver interface {
	ObserveRPCLatency(srv int, migration bool, lat sim.Time)
}

// SetLatencyObserver wires an RPC-latency listener (nil disables).
func (fs *FileSystem) SetLatencyObserver(o LatencyObserver) { fs.latObs = o }

// QueueDepth returns the number of client RPCs currently outstanding
// against server srv — the deterministic saturation signal admission
// control consults before committing a tenant's operation to a server.
// The task-based calls (async.go) are not counted, matching the latency
// observer's scope.
func (fs *FileSystem) QueueDepth(srv int) int {
	if srv < 0 || srv >= len(fs.inflight) {
		return 0
	}
	return fs.inflight[srv]
}

// SetQueueObserver wires a per-RPC queue-depth listener (nil disables):
// it fires once per client RPC at issue time with the post-arrival depth,
// so a sketch over the samples is the queue-length distribution seen by
// arriving requests.
func (fs *FileSystem) SetQueueObserver(fn func(srv, depth int)) { fs.queueObs = fn }

// New deploys the file system on a cluster: one data server process per
// storage node, started immediately.
func New(clu *cluster.Cluster) *FileSystem {
	fs := &FileSystem{
		clu:             clu,
		meta:            make(map[string]*FileMeta),
		inflight:        make([]int, clu.Cfg.StorageNodes),
		timeouts:        clu.Counters.Counter("recovery.timeouts"),
		retries:         clu.Counters.Counter("recovery.retries"),
		failoverReads:   clu.Counters.Counter("recovery.failover_reads"),
		skippedForwards: clu.Counters.Counter("recovery.skipped_forwards"),
	}
	for s := 0; s < clu.Cfg.StorageNodes; s++ {
		srv := newServer(fs, s)
		fs.servers = append(fs.servers, srv)
		srv.start()
	}
	return fs
}

// Cluster returns the platform the file system runs on.
func (fs *FileSystem) Cluster() *cluster.Cluster { return fs.clu }

// Servers returns the number of data servers (the D of the layout math).
func (fs *FileSystem) Servers() int { return len(fs.servers) }

// Server returns the data server with dense index s.
func (fs *FileSystem) Server(s int) *Server { return fs.servers[s] }

// CreateOptions carries optional raster annotations for Create.
type CreateOptions struct {
	StripSize     int64 // 0 → DefaultStripSize
	Width, Height int
	ElemSize      int64
}

// Create registers a file with a layout. Metadata operations are modeled
// as free: the paper's traffic argument is entirely about data strips, and
// metadata messages are orders of magnitude smaller.
func (fs *FileSystem) Create(name string, size int64, lay layout.Layout, opts CreateOptions) (*FileMeta, error) {
	if name == "" {
		return nil, fmt.Errorf("pfs: empty file name")
	}
	if size <= 0 {
		return nil, fmt.Errorf("pfs: file %q size %d", name, size)
	}
	if _, exists := fs.meta[name]; exists {
		return nil, fmt.Errorf("pfs: file %q already exists", name)
	}
	if lay.Servers() != len(fs.servers) {
		return nil, fmt.Errorf("pfs: layout spans %d servers, file system has %d", lay.Servers(), len(fs.servers))
	}
	stripSize := opts.StripSize
	if stripSize == 0 {
		stripSize = DefaultStripSize
	}
	if stripSize <= 0 {
		return nil, fmt.Errorf("pfs: strip size %d", stripSize)
	}
	m := &FileMeta{
		Name:      name,
		Size:      size,
		StripSize: stripSize,
		Layout:    lay,
		Width:     opts.Width,
		Height:    opts.Height,
		ElemSize:  opts.ElemSize,
	}
	fs.meta[name] = m
	return m, nil
}

// Meta looks a file up in the metadata service.
func (fs *FileSystem) Meta(name string) (*FileMeta, bool) {
	m, ok := fs.meta[name]
	return m, ok
}

// Raster looks up a file a raster operation reads: it must exist and
// carry raster metadata.
func (fs *FileSystem) Raster(name string) (*FileMeta, error) {
	m, ok := fs.meta[name]
	if !ok {
		return nil, fmt.Errorf("pfs: unknown input %q", name)
	}
	if m.Width == 0 || m.ElemSize == 0 {
		return nil, fmt.Errorf("pfs: input %q lacks raster metadata", name)
	}
	return m, nil
}

// RasterPair is Raster for input plus the check on the file an operation
// over it writes: output must exist with the input's geometry.
func (fs *FileSystem) RasterPair(input, output string) (in, out *FileMeta, err error) {
	if in, err = fs.Raster(input); err != nil {
		return nil, nil, err
	}
	out, ok := fs.meta[output]
	if !ok {
		return nil, nil, fmt.Errorf("pfs: unknown output %q", output)
	}
	if out.Size != in.Size || out.StripSize != in.StripSize {
		return nil, nil, fmt.Errorf("pfs: output geometry differs from input")
	}
	return in, out, nil
}

// Delete drops a file's metadata and its strips on every server. Like
// Create, it is a metadata-scale operation modeled as free.
func (fs *FileSystem) Delete(name string) {
	delete(fs.meta, name)
	for _, s := range fs.servers {
		delete(s.store, name)
		delete(s.seals, name)
		if s.lastFile == name {
			s.lastFile, s.lastStrips = "", nil
		}
	}
	if fs.invalidator != nil {
		fs.invalidator.InvalidateFile(name)
	}
}

// SetLayout replaces a file's layout record. The strips themselves move
// through restripe's migrator; this is the bare metadata update.
func (fs *FileSystem) SetLayout(name string, lay layout.Layout) error {
	m, ok := fs.meta[name]
	if !ok {
		return fmt.Errorf("pfs: unknown file %q", name)
	}
	if lay.Servers() != len(fs.servers) {
		return fmt.Errorf("pfs: layout spans %d servers, file system has %d", lay.Servers(), len(fs.servers))
	}
	m.Layout = lay
	return nil
}

// call sends a request to server srv on behalf of a process running on
// node fromID, of the incarnation fromInc, and returns the response
// payload. On a healthy cluster it is a plain blocking RPC. Once the fault
// layer is active it fails fast against crashed endpoints, bounds each
// attempt by CallTimeout, polling every PollQuantum the
// liveness of both ends through the predicate active.FanOut polls too
// (fault.State.Watch), and re-sends with doubling backoff — returning
// ErrServerDown or ErrTimeout when the budget runs out. A caller whose
// node is Gone since fromInc — down, or crashed or restarted mid-call or
// while an outer loop (callWrite, readStripFailover) slept — gets
// ErrCallerDown at once or within a quantum: its process belongs to a dead
// incarnation, and nothing is re-sent for it.
func (fs *FileSystem) call(p *sim.Proc, fromID int, fromInc uint64, srv int, payload any, size int64) (any, error) {
	toID := fs.clu.StorageID(srv)
	msg := simnet.Message{
		From:    fromID,
		To:      toID,
		Port:    Port,
		Size:    size,
		Class:   fs.clu.ClassBetween(fromID, toID),
		Payload: payload,
	}
	// The request joins srv's queue for its whole lifetime — queued,
	// in service, or awaiting the response — so the counter is the
	// offered-load depth admission control and the tenants engine sample.
	fs.inflight[srv]++
	if fs.queueObs != nil {
		fs.queueObs(srv, fs.inflight[srv])
	}
	defer func() { fs.inflight[srv]-- }()
	f := fs.clu.Faults
	if !f.Active() {
		return fs.clu.Net.Call(p, msg).Payload, nil
	}
	backoff := RetryBackoff
	for attempt := 0; ; attempt++ {
		// A crashed node's processes run on, but whatever they send or are
		// answered is dropped: their calls fail at once instead of waiting
		// out the timeout, and one that dies mid-call is not re-sent.
		if f.Gone(fromID, fromInc) {
			return nil, fmt.Errorf("pfs: request from node %d: %w", fromID, ErrCallerDown)
		}
		if f.Down(toID) {
			return nil, fmt.Errorf("pfs: server %d: %w", srv, ErrServerDown)
		}
		gone := f.Watch(fromID, toID)
		resp, ok := fs.clu.Net.CallCancelable(p, msg, PollQuantum, CallTimeout, gone)
		if ok {
			return resp.Payload, nil
		}
		if !gone() {
			fs.timeouts.Inc()
		} else if f.Gone(fromID, fromInc) {
			continue // the caller died: the check above returns
		}
		// The target's crash+restart while waiting means the request (or
		// its response) died with the old incarnation; re-send like a
		// timeout.
		if attempt >= CallRetries {
			return nil, fmt.Errorf("pfs: server %d: no response after %d attempts: %w", srv, attempt+1, ErrTimeout)
		}
		fs.retries.Inc()
		p.Sleep(backoff)
		backoff *= 2
	}
}

// callWrite issues a write-path request. Writes never fail over — a
// strip's primary is its single write point — but they do wait out the
// DownBackoff window for a crashed target to restart before surfacing
// ErrServerDown, so a planned crash+restart bridges instead of
// killing an otherwise healthy run. A permanently dead target still fails,
// and a caller that crashes meanwhile sends nothing more: every attempt
// is made for the incarnation that began the write, so call refuses it.
func (fs *FileSystem) callWrite(p *sim.Proc, fromID, srv int, payload any, size int64) (any, error) {
	f := fs.clu.Faults
	fromInc := f.Incarnation(fromID)
	if !f.Active() {
		return fs.call(p, fromID, fromInc, srv, payload, size)
	}
	backoff := DownBackoff
	for round := 0; ; round++ {
		resp, err := fs.call(p, fromID, fromInc, srv, payload, size)
		if err == nil || !errors.Is(err, ErrServerDown) || errors.Is(err, ErrCallerDown) {
			return resp, err
		}
		if round >= DownRetries {
			return nil, err
		}
		fs.retries.Inc()
		p.Sleep(backoff)
		backoff *= 2
	}
}

// describe names a data request for an error: the operation, the file,
// its first strip and how many it carries, and the server. Callers take
// the values before the call, since the request returns to its pool once
// the server has consumed it.
func describe(op, file string, first int64, n, srv int) string {
	if n == 1 {
		return fmt.Sprintf("pfs: %s %s strip %d on server %d", op, file, first, srv)
	}
	return fmt.Sprintf("pfs: %s %s, %d strips from strip %d, on server %d", op, file, n, first, srv)
}

// respError converts an errResp into a typed client-side error.
func respError(r errResp, context string) error {
	if r.Code == codeNotFound {
		return fmt.Errorf("%s: %s: %w", context, r.Err, ErrStripNotHeld)
	}
	return fmt.Errorf("%s: %s", context, r.Err)
}

// unexpectedResponse reports a reply payload of the wrong type. It is an
// error, never a panic: a malformed reply fails one request, not the
// engine.
func unexpectedResponse(resp any, context string) error {
	return fmt.Errorf("%s: got %T: %w", context, resp, ErrUnexpectedResponse)
}

// ReadStripFrom reads bytes [lo, hi) of strip (relative to the strip
// start) from server srv, as a process on node fromID. It is the
// transport used by clients and by active storage servers fetching
// dependent strips from their peers. The result is lent: the response
// carries the holder's window of the stored strip (Server.view), so the
// caller reads the owner's bytes where they lie — read-only, nothing to
// release, valid for as long as it is held whatever happens to the strip
// meanwhile. A caller that modifies what it read copies first.
//
// When the addressed server is down, times out, or lost its copy, the
// read fails over to the strip's other holders under the file's layout,
// and — DownRetries times, DownBackoff apart — waits for a possible
// restart before giving up with ErrNoLiveCopy.
func (fs *FileSystem) ReadStripFrom(p *sim.Proc, fromID, srv int, file string, strip, lo, hi int64) ([]byte, error) {
	fromInc := fs.clu.Faults.Incarnation(fromID)
	data, err := fs.readStripOnce(p, fromID, fromInc, srv, file, strip, lo, hi)
	if err == nil || !failoverEligible(err) {
		return data, err
	}
	return fs.readStripFailover(p, fromID, fromInc, srv, file, strip, lo, hi, err)
}

// ReleaseBuffer does nothing: read results are lent, so there is nothing
// to release. Handing one to a pool would let the pool scribble over a
// stored strip, which under bufpool.Audit the stored-strip seal reports
// (CheckSeals). It is kept only for bench/probes.go, which calls it on a
// read result, until ROADMAP item 3 moves bench/.
func ReleaseBuffer([]byte) {}

// readStripOnce is one read attempt against one server, no failover, for
// the caller's incarnation fromInc.
func (fs *FileSystem) readStripOnce(p *sim.Proc, fromID int, fromInc uint64, srv int, file string, strip, lo, hi int64) ([]byte, error) {
	r, err := fs.read(p, fromID, fromInc, srv, fs.readOne(file, strip, lo, hi))
	if err != nil {
		return nil, err
	}
	data := r.Data[0]
	fs.readRespPut(r)
	return data, nil
}

// read sends one read request to srv, for the caller's incarnation
// fromInc, with no failover, and returns the response: the caller takes
// its windows and re-pools it (readRespPut).
func (fs *FileSystem) read(p *sim.Proc, fromID int, fromInc uint64, srv int, req *readReq) (*readResp, error) {
	file, first, n := req.File, int64(0), len(req.Spans)
	if n > 0 {
		first = req.Spans[0].Strip
	}
	var start sim.Time
	if fs.latObs != nil {
		start = p.Now()
	}
	resp, err := fs.call(p, fromID, fromInc, srv, req, HeaderBytes)
	if err != nil {
		return nil, err
	}
	switch r := resp.(type) {
	case *readResp:
		if fs.latObs != nil {
			fs.latObs.ObserveRPCLatency(srv, false, p.Now()-start)
		}
		return r, nil
	case errResp:
		return nil, respError(r, describe("read", file, first, n, srv))
	default:
		return nil, unexpectedResponse(resp, describe("read", file, first, n, srv))
	}
}

// readStripFailover scans the strip's holders for a live copy after the
// preferred server failed, retrying with backoff to bridge a planned
// restart before surfacing ErrNoLiveCopy. Every attempt is made for the
// incarnation fromInc that began the read, so a caller that crashes during
// a backoff reads nothing more.
func (fs *FileSystem) readStripFailover(p *sim.Proc, fromID int, fromInc uint64, preferred int, file string, strip, lo, hi int64, cause error) ([]byte, error) {
	m, ok := fs.meta[file]
	if !ok {
		return nil, cause
	}
	backoff := DownBackoff
	for round := 0; ; round++ {
		for holders, i := m.Layout.Holders(strip), 0; i < holders.Len(); i++ {
			holder := holders.At(i)
			if round == 0 && holder == preferred {
				continue // just failed above
			}
			if fs.clu.ServerDown(holder) {
				continue
			}
			data, err := fs.readStripOnce(p, fromID, fromInc, holder, file, strip, lo, hi)
			if err == nil {
				if holder != preferred {
					fs.failoverReads.Inc()
				}
				return data, nil
			}
			if !failoverEligible(err) {
				return nil, err
			}
			cause = err
		}
		if round >= DownRetries {
			return nil, fmt.Errorf("pfs: read %s strip %d: %w (last: %v)", file, strip, ErrNoLiveCopy, cause)
		}
		fs.retries.Inc()
		p.Sleep(backoff)
		backoff *= 2
	}
}

// WriteStripTo writes a whole strip to server srv: a write request of
// one strip. When forward is set, the receiving server forwards copies to
// the strip's replica holders (server↔server traffic), implementing the
// replica-maintaining write path of the improved distribution. Product
// code writes through Client.Write; this door and its flag stay for tests
// and bench/probes.go (ROADMAP item 3). Writes do not fail over: a strip's
// primary is its write point, and a primary that never comes back is an
// error the caller must see — though a crashed one is waited on for the
// DownBackoff window first (see callWrite).
func (fs *FileSystem) WriteStripTo(p *sim.Proc, fromID, srv int, file string, strip int64, data []byte, forward bool) error {
	return fs.write(p, fromID, srv, fs.writeOne(file, strip, data, forward, false), false)
}

// ReadSpansFrom fetches several spans of one file from server srv in a
// single request (one disk pass, one response message), each lent as
// ReadStripFrom's result is. If the request fails for a failover-eligible
// reason, each span is re-fetched individually through ReadStripFrom's
// replica failover.
func (fs *FileSystem) ReadSpansFrom(p *sim.Proc, fromID, srv int, file string, spans []Span) ([][]byte, error) {
	req := fs.readReqGet()
	req.File, req.Spans = file, append(req.Spans, spans...)
	r, err := fs.read(p, fromID, fs.clu.Faults.Incarnation(fromID), srv, req)
	if err == nil {
		data := r.Data
		r.Data = nil
		fs.readRespPut(r)
		return data, nil
	}
	if !failoverEligible(err) {
		return nil, err
	}
	// Degraded path: the request's server is gone; recover span by span
	// from whatever live holders exist. Slower (one request per span), but
	// this only runs once a fault has already disrupted the request.
	out := make([][]byte, len(spans))
	for i, sp := range spans {
		data, rerr := fs.ReadStripFrom(p, fromID, srv, file, sp.Strip, sp.Lo, sp.Hi)
		if rerr != nil {
			return nil, rerr
		}
		out[i] = data
	}
	return out, nil
}

// WriteStripsTo writes several whole strips to server srv in a single
// request; the server forwards each strip's copies to its other holders.
func (fs *FileSystem) WriteStripsTo(p *sim.Proc, fromID, srv int, file string, strips []int64, data [][]byte) error {
	req := fs.writeReqGet()
	req.File, req.Forward = file, true
	req.Strips, req.Data = append(req.Strips, strips...), append(req.Data, data...)
	return fs.write(p, fromID, srv, req, false)
}

// write sends one write request to srv and waits for its acknowledgement.
// The request is built by the caller, because who builds it decides
// whether the receiver may keep its data by reference
// (writeReq.immutable); and the latency sample's migration tag is
// explicit: restripe copy pushes (Server.migrate) flow through here with
// migration set so the controller can exclude them from tuning.
func (fs *FileSystem) write(p *sim.Proc, fromID, srv int, req *writeReq, migration bool) error {
	file, first, n := req.File, int64(0), len(req.Strips)
	if n > 0 {
		first = req.Strips[0]
	}
	var size int64 = HeaderBytes
	for _, d := range req.Data {
		size += int64(len(d))
	}
	var start sim.Time
	if fs.latObs != nil {
		start = p.Now()
	}
	resp, err := fs.callWrite(p, fromID, srv, req, size)
	if err != nil {
		return err
	}
	switch r := resp.(type) {
	case ackResp:
		if fs.latObs != nil {
			fs.latObs.ObserveRPCLatency(srv, migration, p.Now()-start)
		}
		return nil
	case errResp:
		return respError(r, describe("write", file, first, n, srv))
	default:
		return unexpectedResponse(resp, describe("write", file, first, n, srv))
	}
}

// MigrateStrip asks server srv (a current holder) to push its copy of a
// strip to the given target servers. The control RPC and the copy pushes
// it triggers are migration-tagged for the latency observer: they are
// background traffic, not tuning signal.
func (fs *FileSystem) MigrateStrip(p *sim.Proc, fromID, srv int, file string, strip int64, targets []int) error {
	var start sim.Time
	if fs.latObs != nil {
		start = p.Now()
	}
	resp, err := fs.callWrite(p, fromID, srv, migrateReq{File: file, Strip: strip, Targets: targets}, HeaderBytes)
	if err != nil {
		return err
	}
	switch r := resp.(type) {
	case ackResp:
		if fs.latObs != nil {
			fs.latObs.ObserveRPCLatency(srv, true, p.Now()-start)
		}
		return nil
	case errResp:
		return respError(r, fmt.Sprintf("pfs: migrate %s strip %d via server %d", file, strip, srv))
	default:
		return unexpectedResponse(resp, fmt.Sprintf("pfs: migrate %s strip %d via server %d", file, strip, srv))
	}
}
