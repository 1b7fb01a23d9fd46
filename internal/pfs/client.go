package pfs

import (
	"bytes"
	"fmt"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// Client is the parallel-file-system client library bound to one node
// (usually a compute node). All data operations run inside the calling
// process and charge that node's NICs; independent strip transfers are
// pipelined on child processes the way a striping PFS client overlaps
// requests to different servers.
type Client struct {
	fs     *FileSystem
	nodeID int
}

// NewClient binds a client to a node.
func (fs *FileSystem) NewClient(nodeID int) *Client {
	return &Client{fs: fs, nodeID: nodeID}
}

// NodeID returns the node this client issues requests from.
func (c *Client) NodeID() int { return c.nodeID }

// FS returns the file system the client talks to.
func (c *Client) FS() *FileSystem { return c.fs }

// WriteAll stripes data over the file's layout: the strips bound for each
// primary server travel in one batched request (as a striping PFS client
// coalesces them), and each server forwards replica copies if the layout
// requires them. Requests to distinct servers overlap.
func (c *Client) WriteAll(p *sim.Proc, name string, data []byte) error {
	m, ok := c.fs.meta[name]
	if !ok {
		return fmt.Errorf("pfs: unknown file %q", name)
	}
	if int64(len(data)) != m.Size {
		return fmt.Errorf("pfs: file %q is %d bytes, got %d", name, m.Size, len(data))
	}
	type batch struct {
		strips []int64
		chunks [][]byte
	}
	batches := make(map[int]*batch)
	var order []int
	for s := int64(0); s < m.Strips(); s++ {
		lo, hi := m.StripBounds(s)
		srv := m.Layout.Primary(s)
		b, ok := batches[srv]
		if !ok {
			b = &batch{}
			batches[srv] = b
			order = append(order, srv)
		}
		b.strips = append(b.strips, s)
		b.chunks = append(b.chunks, data[lo:hi])
	}
	sigs := make([]*sim.Signal[error], 0, len(order))
	for _, srv := range order {
		srv := srv
		b := batches[srv]
		done := sim.NewSignal[error](c.fs.clu.Eng, "pfs-write")
		sigs = append(sigs, done)
		p.Spawn("pfs-write", func(w *sim.Proc) {
			done.Fire(c.fs.WriteStripsTo(w, c.nodeID, srv, name, b.strips, b.chunks))
		})
	}
	for _, err := range sim.WaitAll(p, sigs) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Write updates bytes [off, off+len(data)) of the file. Whole strips are
// replaced directly; partially covered strips are updated read-modify-
// write, as striped file systems do for unaligned writes. Replicas are
// re-forwarded for every touched strip so copies never diverge.
func (c *Client) Write(p *sim.Proc, name string, off int64, data []byte) error {
	m, ok := c.fs.meta[name]
	if !ok {
		return fmt.Errorf("pfs: unknown file %q", name)
	}
	end := off + int64(len(data))
	if off < 0 || end > m.Size {
		return fmt.Errorf("pfs: write [%d,%d) outside file %q of %d bytes", off, end, name, m.Size)
	}
	if len(data) == 0 {
		return nil
	}
	for s := off / m.StripSize; s*m.StripSize < end; s++ {
		sLo, sHi := m.StripBounds(s)
		lo, hi := off, end
		if lo < sLo {
			lo = sLo
		}
		if hi > sHi {
			hi = sHi
		}
		chunk := data[lo-off : hi-off]
		if lo == sLo && hi == sHi {
			if err := c.fs.WriteStripTo(p, c.nodeID, m.Layout.Primary(s), name, s, chunk, true); err != nil {
				return err
			}
			continue
		}
		// Unaligned: read-modify-write the strip. What the read returned is
		// the primary's stored strip, lent, so the modification goes into a
		// copy — this call's own, written by nobody afterwards, which lets
		// the primary keep it as the strip's one copy on entry.
		stored, err := c.fs.ReadStripFrom(p, c.nodeID, m.Layout.Primary(s), name, s, 0, 0)
		if err != nil {
			return err
		}
		full := bytes.Clone(stored)
		copy(full[lo-sLo:], chunk)
		w := writeReq{File: name, Strip: s, Data: full, Forward: true, immutable: true}
		if err := c.fs.writeStrip(p, c.nodeID, m.Layout.Primary(s), w, false); err != nil {
			return err
		}
	}
	return nil
}

// Read returns bytes [off, off+length) of the file, assembling per-strip
// reads from the primary holders in parallel. The returned slice is
// freshly allocated and owned by the caller; a reader that only looks at
// the bytes should use ReadLent and copy nothing.
func (c *Client) Read(p *sim.Proc, name string, off, length int64) ([]byte, error) {
	out := make([]byte, length)
	if err := c.ReadInto(p, name, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills out with bytes [off, off+len(out)) of the file: ReadLent,
// with each window copied to its place in a buffer the caller owns.
func (c *Client) ReadInto(p *sim.Proc, name string, off int64, out []byte) error {
	return c.ReadLent(p, name, off, int64(len(out)), func(at int64, window []byte) {
		copy(out[at-off:], window)
	})
}

// ReadLent reads bytes [off, off+length) of the file, assembling per-strip
// reads from the primary holders in parallel, and hands each to the caller
// where it lies: each(at, window) receives the bytes from file offset at
// on, one call per strip touched, in no particular order, and together the
// windows tile the range. A window is lent under ReadStripFrom's contract —
// the owner's stored strip itself, its capacity clipped, read-only, never
// released, and reading the same bytes for as long as it is held whatever
// happens to the file meanwhile — so a read allocates nothing proportional
// to its size and moves no byte. When the read fails, each may already
// have seen the windows of the servers that answered.
func (c *Client) ReadLent(p *sim.Proc, name string, off, length int64, each func(at int64, window []byte)) error {
	m, ok := c.fs.meta[name]
	if !ok {
		return fmt.Errorf("pfs: unknown file %q", name)
	}
	if off < 0 || length < 0 || off+length > m.Size {
		return fmt.Errorf("pfs: read [%d,%d) outside file %q of %d bytes", off, off+length, name, m.Size)
	}
	if length == 0 {
		return nil
	}
	// Group strips by primary server with a counting sort over the dense
	// server index (exact-size allocations, no maps): cur[srv] counts spans,
	// becomes the fill cursor after a prefix sum, and ends as the exclusive
	// end offset of srv's group — so group k spans spans[cur[k-1]:cur[k]].
	firstStrip := off / m.StripSize
	lastStrip := (off + length - 1) / m.StripSize
	nSpans := int(lastStrip - firstStrip + 1)
	cur := make([]int, c.fs.Servers())
	for s := firstStrip; s <= lastStrip; s++ {
		cur[m.Layout.Primary(s)]++
	}
	sum := 0
	for srv, n := range cur {
		cur[srv] = sum
		sum += n
	}
	starts := make([]int, len(cur))
	copy(starts, cur)
	spans := make([]Span, nSpans)
	sigs := make([]*sim.Signal[error], 0, len(cur))
	for s := firstStrip; s <= lastStrip; s++ {
		sLo, sHi := m.StripBounds(s)
		lo, hi := off, off+length
		if lo < sLo {
			lo = sLo
		}
		if hi > sHi {
			hi = sHi
		}
		srv := m.Layout.Primary(s)
		i := cur[srv]
		spans[i] = Span{Strip: s, Lo: lo - sLo, Hi: hi - sLo}
		cur[srv]++
		if i != starts[srv] {
			continue
		}
		// First strip owned by srv: fork its batch read here so servers are
		// engaged in first-encounter order, exactly as issuing requests
		// strip by strip would. The group's later spans are filled before
		// the child can run (spawn only schedules; children run once this
		// process parks in WaitAll). Static diagnostic names: formatted
		// per-server names were a leading allocation source on this path.
		end := nSpans
		if srv+1 < len(starts) {
			end = starts[srv+1]
		}
		srv, bSpans := srv, spans[i:end]
		done := sim.NewSignal[error](c.fs.clu.Eng, "pfs-read")
		sigs = append(sigs, done)
		p.Spawn("pfs-read", func(r *sim.Proc) {
			data, err := c.fs.ReadSpansFrom(r, c.nodeID, srv, name, bSpans)
			for i, d := range data {
				each(bSpans[i].Strip*m.StripSize+bSpans[i].Lo, d)
			}
			done.Fire(err)
		})
	}
	for _, err := range sim.WaitAll(p, sigs) {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadAll returns the whole file.
func (c *Client) ReadAll(p *sim.Proc, name string) ([]byte, error) {
	m, ok := c.fs.meta[name]
	if !ok {
		return nil, fmt.Errorf("pfs: unknown file %q", name)
	}
	return c.Read(p, name, 0, m.Size)
}

// Reconfigure migrates a file to a new layout (the "Reconfig Parallel File
// System" step of the DAS workflow, Fig. 3). For every strip, each new
// holder that lacks a copy receives one from the current primary
// (server↔server traffic); holders that are no longer part of the new
// placement drop their copies. Strip migrations overlap.
func (c *Client) Reconfigure(p *sim.Proc, name string, newLay layout.Layout) error {
	m, ok := c.fs.meta[name]
	if !ok {
		return fmt.Errorf("pfs: unknown file %q", name)
	}
	if newLay.Servers() != len(c.fs.servers) {
		return fmt.Errorf("pfs: layout spans %d servers, file system has %d", newLay.Servers(), len(c.fs.servers))
	}
	oldLay := m.Layout
	var sigs []*sim.Signal[error]
	for s := int64(0); s < m.Strips(); s++ {
		s := s
		src := oldLay.Primary(s)
		var targets []int
		for _, holder := range layout.Holders(newLay, s) {
			if !c.fs.servers[holder].Holds(name, s) {
				targets = append(targets, holder)
			}
		}
		if len(targets) == 0 {
			continue
		}
		done := sim.NewSignal[error](c.fs.clu.Eng, "pfs-migrate")
		sigs = append(sigs, done)
		p.Spawn("pfs-migrate", func(mp *sim.Proc) {
			done.Fire(c.fs.MigrateStrip(mp, c.nodeID, src, name, s, targets))
		})
	}
	for _, err := range sim.WaitAll(p, sigs) {
		if err != nil {
			return err
		}
	}
	// Retire copies that the new layout does not place.
	for s := int64(0); s < m.Strips(); s++ {
		for _, holder := range layout.Holders(oldLay, s) {
			if !layout.Holds(newLay, s, holder) {
				c.fs.servers[holder].Drop(name, s)
			}
		}
	}
	m.Layout = newLay
	return nil
}
