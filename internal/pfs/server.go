package pfs

import (
	"errors"
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Protocol payloads exchanged on the pfs port. Responses travel back over
// the Reply mailbox embedded in the request message. A data request names
// one file and a batch of its strips — one strip, or a client's whole
// share of a request on this server — and costs the same whatever the
// batch: a header plus its bytes on the wire, and one sequential pass on
// the disk, since a data server stores its strips of a file contiguously
// and pays one positioning cost per request. The three data payloads
// travel as pooled pointers (readReqGet and its siblings), their slices
// reused with them.
type (
	readReq struct {
		File  string
		Spans []Span
	}
	writeReq struct {
		File   string
		Strips []int64
		Data   [][]byte // Data[i] is the whole of strip Strips[i]
		// Forward asks the primary to forward each strip's copies to its
		// replica holders.
		Forward bool
		// immutable says nobody will write Data again, so the receiver may
		// keep it by reference instead of copying it. A server forwarding a
		// strip it has stored sets it (Forward, migrate),
		// and so does Client.Write for the copy its read-modify-write makes;
		// a request carrying a caller's buffer never does.
		immutable bool
	}
	// readResp answers a readReq: Data[i] is the lent window of Spans[i].
	readResp   struct{ Data [][]byte }
	migrateReq struct {
		File    string
		Strip   int64
		Targets []int
	}
	ackResp struct{}
	errResp struct {
		Err  string
		Code errCode
	}
)

// Span addresses bytes [Lo, Hi) within one strip (relative to the strip's
// start). Hi == 0 selects the whole strip.
type Span struct {
	Strip  int64
	Lo, Hi int64
}

// Server is one PFS data server: it owns a storage node's disk and an
// in-memory strip store and serves the pfs port. Each request is handled
// concurrently with every other (a thread-pool model) — as a task chain
// when its handler is straight-line, on its own child process when it
// needs a stack (handler.go) — so a slow disk or a busy NIC queues
// requests on the physical resource rather than on the service loop: the
// contention the paper's NAS analysis is about.
type Server struct {
	fs     *FileSystem
	srv    int // dense server index
	nodeID int
	// store holds each strip as an immutable value: a write replaces the
	// slice, nothing ever writes into one, so a reference handed out
	// before an overwrite, Drop or Delete keeps reading the old bytes
	// (DESIGN.md §10, strip ownership).
	store map[string]map[int64][]byte
	reqs  uint64

	// lastFile/lastStrips cache the most recent store hit: requests on a
	// busy server overwhelmingly name the same file, and the string-keyed
	// map lookup (hash + compare per request) is measurable at scale.
	// Inner maps are created once and mutated in place, never replaced,
	// so a cached reference stays valid until the file is deleted
	// (FileSystem.Delete resets it).
	lastFile   string
	lastStrips map[int64][]byte

	// seals holds the stored-strip seal while bufpool.Audit is on (seal.go).
	seals map[string]map[int64]seal

	// hname is the handler diagnostic name, formatted on first use.
	hname string
	// taskFree recycles request chains (handler.go).
	taskFree []*reqTask
}

func newServer(fs *FileSystem, srv int) *Server {
	return &Server{
		fs:     fs,
		srv:    srv,
		nodeID: fs.clu.StorageID(srv),
		store:  make(map[string]map[int64][]byte),
	}
}

// Index returns the server's dense index.
func (s *Server) Index() int { return s.srv }

// NodeID returns the cluster node the server runs on.
func (s *Server) NodeID() int { return s.nodeID }

// Requests returns the number of requests received so far.
func (s *Server) Requests() uint64 { return s.reqs }

// handlerName returns the per-server handler diagnostic name, formatted
// once on first use: a per-request formatted name would allocate on every
// message, and even per-server formatting is deferred so building a
// five-thousand-server cluster pays nothing for names diagnostics may
// never read.
func (s *Server) handlerName() string {
	if s.hname == "" {
		s.hname = fmt.Sprintf("pfs-server-%d-req", s.srv)
	}
	return s.hname
}

// start installs the port's inline dispatcher (handler.go). Its initial
// drain task is the service loop's start event; each delivered message
// reaches dispatch at the event a daemon parked in Get would wake at.
func (s *Server) start() {
	s.fs.clu.Net.Node(s.nodeID).Port(Port).SetDispatcher(s.dispatch)
}

// failResp is the wire form of a handler error.
func failResp(err error) errResp {
	code := codeInternal
	if errors.Is(err, errNotHeld) {
		code = codeNotFound
	}
	return errResp{Err: err.Error(), Code: code}
}

// handle serves, on its own process, the requests that need a stack:
// writes that forward replica copies (StoreForwarded waits on the
// forwards), migrations, and anything unrecognized. Everything else — a
// write without Forward included — runs as a reqTask chain; dispatch
// decides per message.
func (s *Server) handle(p *sim.Proc, msg simnet.Message) {
	respond := func(payload any) {
		s.fs.clu.Net.Respond(p, msg, payload, HeaderBytes, s.fs.clu.ClassBetween(s.nodeID, msg.From))
	}
	var err error
	switch req := msg.Payload.(type) {
	case *writeReq:
		data := req.Data
		if !req.immutable {
			data = make([][]byte, len(req.Data))
			for i, d := range req.Data {
				data[i] = entering(d, false)
			}
		}
		err = s.StoreForwarded(p, req.File, req.Strips, data)
		s.fs.writeReqPut(req)
	case migrateReq:
		err = s.migrate(p, req)
	default:
		respond(errResp{Err: fmt.Sprintf("unknown request %T", msg.Payload), Code: codeBadRequest})
		return
	}
	if err != nil {
		respond(failResp(err))
		return
	}
	respond(ackResp{})
}

// stripsOf returns the strip map for file, through the one-entry cache.
func (s *Server) stripsOf(file string) (map[int64][]byte, bool) {
	if file == s.lastFile && s.lastStrips != nil {
		return s.lastStrips, true
	}
	strips, ok := s.store[file]
	if ok {
		s.lastFile, s.lastStrips = file, strips
	}
	return strips, ok
}

// Holds reports whether the server currently stores a copy of the strip.
func (s *Server) Holds(file string, strip int64) bool {
	strips, ok := s.stripsOf(file)
	if !ok {
		return false
	}
	_, ok = strips[strip]
	return ok
}

// view returns bytes [lo, hi) of a locally held strip as a window of the
// stored slice itself, without charging the disk; callers charge a batch's
// disk pass (viewMany). Hi == 0 selects the whole strip. The window is
// lent: read-only, its capacity ends at hi, and it keeps reading the same
// bytes for as long as it is held, whatever is overwritten, dropped,
// deleted or purged meanwhile. Every read — local, or a response that leaves the server —
// hands out this window: an immutable strip has nothing a copy would
// protect.
func (s *Server) view(file string, strip, lo, hi int64) ([]byte, error) {
	strips, ok := s.stripsOf(file)
	if !ok {
		return nil, fmt.Errorf("server %d holds no strips of %q: %w", s.srv, file, errNotHeld)
	}
	data, ok := strips[strip]
	if !ok {
		return nil, fmt.Errorf("server %d does not hold %q strip %d: %w", s.srv, file, strip, errNotHeld)
	}
	if hi == 0 {
		hi = int64(len(data))
	}
	if lo < 0 || hi > int64(len(data)) || lo > hi {
		return nil, fmt.Errorf("range [%d,%d) outside strip of %d bytes", lo, hi, len(data))
	}
	return data[lo:hi:hi], nil
}

// viewMany appends to dst the view of each span of file, in order, and
// returns it with the spans' total bytes: what one sequential disk pass
// reads for the batch. On an error dst may hold the spans before the
// failing one.
func (s *Server) viewMany(dst [][]byte, file string, spans []Span) ([][]byte, int64, error) {
	dst = slices.Grow(dst, len(spans))
	var total int64
	for _, sp := range spans {
		data, err := s.view(file, sp.Strip, sp.Lo, sp.Hi)
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, data)
		total += int64(len(data))
	}
	return dst, total, nil
}

// LocalRead is the local I/O API from the paper's architecture (Fig. 2):
// it reads bytes [lo, hi) of a locally held strip through the node's disk,
// without touching the network. Hi == 0 selects the whole strip. The
// result is lent under LocalViewMany's contract: a read-only window of
// the stored strip, never released, never written.
func (s *Server) LocalRead(p *sim.Proc, file string, strip, lo, hi int64) ([]byte, error) {
	data, err := s.view(file, strip, lo, hi)
	if err != nil {
		return nil, err
	}
	s.fs.clu.Disk(s.nodeID).Read(p, int64(len(data)))
	return data, nil
}

// LocalViewMany is the batched local read for code running on this
// server (an offloaded kernel assembling its band): several spans of one
// file in a single sequential disk pass — one positioning cost plus the
// batch's total bytes, since a data server keeps its strips of a file
// contiguous on disk. Each chunk is lent: it is a window of the stored
// strip itself, read-only, valid for as long as the caller holds it
// whatever happens to the strip meanwhile, and never to be released to a
// pool or written through. Read it in place (grid.Band.Lend) and let it
// go.
func (s *Server) LocalViewMany(p *sim.Proc, file string, spans []Span) ([][]byte, error) {
	out, total, err := s.viewMany(nil, file, spans)
	if err != nil {
		return nil, err
	}
	s.fs.clu.Disk(s.nodeID).Read(p, total)
	return out, nil
}

// LocalWrite stores a strip through the node's disk: LocalWriteMany of one
// strip. data becomes the stored strip by reference: the caller must never
// write to it again (client bytes are copied before they get here, in the
// request handlers).
func (s *Server) LocalWrite(p *sim.Proc, file string, strip int64, data []byte) error {
	return s.LocalWriteMany(p, file, []int64{strip}, [][]byte{data})
}

// LocalWriteMany stores several whole strips with one sequential disk
// write. It is how a kernel running on this server stores its output:
// each element of data becomes a stored strip by reference, under
// LocalWrite's contract. It sends no copies: Forward does.
func (s *Server) LocalWriteMany(p *sim.Proc, file string, strips []int64, data [][]byte) error {
	total, err := s.validateWrite(file, strips, data)
	if err != nil {
		return err
	}
	for i, strip := range strips {
		s.storePut(file, strip, data[i])
	}
	s.fs.clu.Disk(s.nodeID).Write(p, total)
	return nil
}

// Forward sends strips this server stores (or is storing) to their other
// holders under the file's current layout, batched per holder
// (replicaBatches), one process per holder started from p, all at once. It
// returns one signal per holder, fired with that holder's error once its
// batch is acknowledged or skipped (sendReplicas). The holders keep the
// same immutable slices by reference. This is the one forwarding order:
// the storage servers' run loop calls it when a run's compute ends, and a
// replica-maintaining write stores first and then waits on it
// (StoreForwarded).
func (s *Server) Forward(p *sim.Proc, file string, strips []int64, data [][]byte) ([]*sim.Signal[error], error) {
	batches, err := s.replicaBatches(file, strips, data)
	if err != nil {
		return nil, err
	}
	sent := make([]*sim.Signal[error], len(batches))
	for i, b := range batches {
		done := sim.NewSignal[error](s.fs.clu.Eng, "pfs-forward")
		sent[i] = done
		p.Spawn("pfs-forward", func(f *sim.Proc) { done.Fire(s.sendReplicas(f, b)) })
	}
	return sent, nil
}

// StoreForwarded stores strips (LocalWriteMany), then forwards their
// copies (Forward) and waits for every holder: the order of client
// replica-maintaining writes (a forwarding writeReq) and mapred's
// reducers. It returns the first error.
func (s *Server) StoreForwarded(p *sim.Proc, file string, strips []int64, data [][]byte) error {
	if err := s.LocalWriteMany(p, file, strips, data); err != nil {
		return err
	}
	sent, err := s.Forward(p, file, strips, data)
	if err != nil {
		return err
	}
	for _, err := range sim.WaitAll(p, sent) {
		if err != nil {
			return err
		}
	}
	return nil
}

// replicaBatch is what one replica holder is owed of a batch of strips
// this server stored: one write request, ready to send.
type replicaBatch struct {
	target int
	req    *writeReq
	size   int64
}

// replicaBatches groups the given strips by the other holders each is owed
// under the file's current layout, holders in order of first appearance:
// its replicas, and its primary too when this server stores it as one of
// them — an offload or a pipeline catch-up placed off the primary — since
// the primary is the strip's single write point and reads go to it first.
// A server that holds no copy under the current layout (a restripe changed
// it mid-store) sends to the replicas only: a write racing a migration is
// the migrator's to repair, its invalidation hook dirtying the move.
func (s *Server) replicaBatches(file string, strips []int64, data [][]byte) ([]replicaBatch, error) {
	m, ok := s.fs.meta[file]
	if !ok {
		return nil, fmt.Errorf("unknown file %q", file)
	}
	var batches []replicaBatch
	at := make(map[int]int) // holder -> index in batches
	add := func(holder int, strip int64, chunk []byte) {
		if holder == s.srv {
			return
		}
		j, seen := at[holder]
		if !seen {
			j = len(batches)
			at[holder] = j
			req := s.fs.writeReqGet()
			req.File, req.immutable = file, true
			batches = append(batches, replicaBatch{target: holder, req: req, size: HeaderBytes})
		}
		b := &batches[j]
		b.req.Strips = append(b.req.Strips, strip)
		b.req.Data = append(b.req.Data, chunk)
		b.size += int64(len(chunk))
	}
	// A strip is owed to its replicas, and to its primary too when this
	// server holds it as a replica; add skips this server itself.
	for i, strip := range strips {
		holders, first := m.Layout.Holders(strip), 1
		if holders.Has(s.srv) {
			first = 0
		}
		for j := first; j < holders.Len(); j++ {
			add(holders.At(j), strip, data[i])
		}
	}
	return batches, nil
}

// Owes reports whether Forward would send this server's copy of strip to
// another holder under the file's current layout: a replica, or the
// primary when this server holds the strip as a replica. Either way that
// is whether the strip has a replica at all. An unknown file owes
// nothing.
func (s *Server) Owes(file string, strip int64) bool {
	m, ok := s.fs.meta[file]
	return ok && m.Layout.Holders(strip).Len() > 1
}

// sendReplicas pushes one holder's batch and waits for its
// acknowledgement. Replication is best-effort under faults: a holder that
// is down or times out loses this copy rather than failing the write —
// the primary copy is durable; DESIGN.md documents the divergence window.
func (s *Server) sendReplicas(p *sim.Proc, b replicaBatch) error {
	resp, err := s.fs.call(p, s.nodeID, s.fs.clu.Faults.Incarnation(s.nodeID), b.target, b.req, b.size)
	if err != nil {
		if errors.Is(err, ErrServerDown) || errors.Is(err, ErrTimeout) {
			s.fs.skippedForwards.Inc()
			return nil
		}
		return err
	}
	if e, isErr := resp.(errResp); isErr {
		return fmt.Errorf("replica forward to server %d: %s", b.target, e.Err)
	}
	return nil
}

// Drop discards a local strip copy without timing cost (a metadata-scale
// truncation). Reconfiguration uses it to retire stale placements.
func (s *Server) Drop(file string, strip int64) {
	if strips, ok := s.stripsOf(file); ok {
		delete(strips, strip)
	}
	delete(s.seals[file], strip)
	if s.fs.invalidator != nil {
		s.fs.invalidator.InvalidateStrip(file, strip)
	}
}

// validateWrite checks a write against the file's metadata — every strip
// inside the file and given whole — and returns its total bytes. The
// request chain and LocalWriteMany (so the handler process) check with it.
func (s *Server) validateWrite(file string, strips []int64, data [][]byte) (int64, error) {
	m, ok := s.fs.meta[file]
	if !ok {
		return 0, fmt.Errorf("unknown file %q", file)
	}
	if len(strips) != len(data) {
		return 0, fmt.Errorf("write: %d strips but %d buffers", len(strips), len(data))
	}
	var total int64
	for i, strip := range strips {
		lo, hi := m.StripBounds(strip)
		if hi <= lo {
			return 0, fmt.Errorf("strip %d outside file %q", strip, file)
		}
		if int64(len(data[i])) != hi-lo {
			return 0, fmt.Errorf("strip %d of %q is %d bytes, got %d", strip, file, hi-lo, len(data[i]))
		}
		total += hi - lo
	}
	return total, nil
}

// Preload installs a strip copy directly into the server's store, with no
// simulated disk or network cost. Benchmark bootstrap uses it to populate
// paper-scale datasets without simulating the ingest; it must not be
// called while a simulation is measuring. The store keeps a copy; data
// stays the caller's.
func (s *Server) Preload(file string, strip int64, data []byte) {
	s.storePut(file, strip, entering(data, false))
}

// entering returns data as a slice the store may keep. This is the one
// place strip bytes are copied on their way in: memory a client still
// owns (and reuses, like the tenants' and the scale storm's write buffers)
// arriving at a primary, a preload. Immutable data — a stored strip
// forwarded to a replica holder or pushed by a migrating one — enters as
// it is.
func entering(data []byte, immutable bool) []byte {
	if immutable {
		return data
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// storePut makes data the stored copy of a strip, by reference, and seals
// it while the audit is on. Whatever slice was stored before is left
// untouched for those still holding it.
func (s *Server) storePut(file string, strip int64, data []byte) {
	strips, ok := s.stripsOf(file)
	if !ok {
		strips = make(map[int64][]byte)
		s.store[file] = strips
		s.lastFile, s.lastStrips = file, strips
	}
	strips[strip] = data
	if bufpool.Auditing() {
		s.seal(file, strip, data)
	}
	if s.fs.invalidator != nil {
		s.fs.invalidator.InvalidateStrip(file, strip)
	}
}

// migrate pushes the local copy of a strip to each target server, which
// keeps the same immutable slice by reference, as a replica holder does.
// The pushes are migration-tagged writes: restripe copy traffic must not
// leak into the latency observer's tuning samples.
func (s *Server) migrate(p *sim.Proc, req migrateReq) error {
	data, err := s.LocalRead(p, req.File, req.Strip, 0, 0)
	if err != nil {
		return err
	}
	for _, target := range req.Targets {
		if target == s.srv {
			continue
		}
		if err := s.fs.write(p, s.nodeID, target, s.fs.writeOne(req.File, req.Strip, data, false, true), true); err != nil {
			return err
		}
	}
	return nil
}

// StoredBytes returns the bytes of all strips the server currently holds,
// the quantity behind the layout capacity-overhead accounting.
func (s *Server) StoredBytes() int64 {
	var total int64
	for _, strips := range s.store {
		for _, d := range strips {
			total += int64(len(d))
		}
	}
	return total
}
