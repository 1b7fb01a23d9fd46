package pfs

import (
	"bytes"
	"fmt"
	"slices"

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

// WriteAll writes the whole file: Write from offset 0, of exactly the
// file's size.
func (c *Client) WriteAll(p *sim.Proc, name string, data []byte) error {
	if m, ok := c.fs.meta[name]; ok && int64(len(data)) != m.Size {
		return fmt.Errorf("pfs: file %q is %d bytes, got %d", name, m.Size, len(data))
	}
	return c.Write(p, name, 0, data)
}

// Write updates bytes [off, off+len(data)) of the file, as a striping
// client does: the whole strips bound for each primary travel in one
// request, the requests to distinct primaries at once (perPrimary), and
// each primary forwards replica copies if the layout requires them, so
// copies never diverge. A partially covered strip is updated
// read-modify-write, as striped file systems do for unaligned writes.
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
	return c.perPrimary(p, "pfs-write", m, off, end-off, func(w *sim.Proc, srv int, spans []Span) error {
		strips, chunks := make([]int64, 0, len(spans)), make([][]byte, 0, len(spans))
		for _, sp := range spans {
			sLo, sHi := m.StripBounds(sp.Strip)
			chunk := data[sLo+sp.Lo-off : sLo+sp.Hi-off]
			if sp.Hi-sp.Lo == sHi-sLo {
				strips, chunks = append(strips, sp.Strip), append(chunks, chunk)
				continue
			}
			// Unaligned: read-modify-write the strip. What the read
			// returned is the primary's stored strip, lent, so the
			// modification goes into a copy — this call's own, written by
			// nobody afterwards, which lets the primary keep it as the
			// strip's one copy on entry.
			stored, err := c.fs.ReadStripFrom(w, c.nodeID, srv, name, sp.Strip, 0, 0)
			if err != nil {
				return err
			}
			full := bytes.Clone(stored)
			copy(full[sp.Lo:], chunk)
			if err := c.fs.write(w, c.nodeID, srv, c.fs.writeOne(name, sp.Strip, full, true, true), false); err != nil {
				return err
			}
		}
		if len(strips) == 0 {
			return nil
		}
		return c.fs.WriteStripsTo(w, c.nodeID, srv, name, strips, chunks)
	})
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

// ReadLent reads bytes [off, off+length) of the file, one request per
// primary holder, in parallel (perPrimary), and hands each strip to the
// caller where it lies: each(at, window) receives the bytes from file
// offset at on, one call per strip touched, in no particular order, and
// together the windows tile the range. A window is lent under
// ReadStripFrom's contract — the owner's stored strip itself, its capacity
// clipped, read-only, never released, and reading the same bytes for as
// long as it is held whatever happens to the file meanwhile — so a read
// allocates nothing proportional to its size and moves no byte. When the
// read fails, each may already have seen the windows of the servers that
// answered.
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
	return c.perPrimary(p, "pfs-read", m, off, length, func(r *sim.Proc, srv int, spans []Span) error {
		data, err := c.fs.ReadSpansFrom(r, c.nodeID, srv, name, spans)
		for i, d := range data {
			each(spans[i].Strip*m.StripSize+spans[i].Lo, d)
		}
		return err
	})
}

// perPrimary is the client's one batcher. It cuts bytes [off,
// off+length) of a file into one span per strip touched, groups the spans
// by the strip's primary — strips ascending within a group — and runs
// serve once per group: for several groups each on a process of its own
// named name, started in the order the servers are first met walking the
// strips, as issuing requests strip by strip would engage them; for one,
// on p itself. It waits for every group and returns the first error. The grouping is a counting sort over the dense
// server index: exact-size allocations, no maps; at[srv] ends as the
// first slot of srv's group and at[srv+1] as one past its last.
func (c *Client) perPrimary(p *sim.Proc, name string, m *FileMeta, off, length int64, serve func(w *sim.Proc, srv int, spans []Span) error) error {
	first, last := off/m.StripSize, (off+length-1)/m.StripSize
	at := make([]int, c.fs.Servers()+1)
	for s := first; s <= last; s++ {
		at[m.Layout.Primary(s)+1]++
	}
	for srv := 1; srv < len(at); srv++ {
		at[srv] += at[srv-1]
	}
	fill := slices.Clone(at[:len(at)-1])
	spans := make([]Span, last-first+1)
	var order []int
	for s := first; s <= last; s++ {
		sLo, sHi := m.StripBounds(s)
		srv := m.Layout.Primary(s)
		if fill[srv] == at[srv] {
			order = append(order, srv)
		}
		spans[fill[srv]] = Span{Strip: s, Lo: max(off, sLo) - sLo, Hi: min(off+length, sHi) - sLo}
		fill[srv]++
	}
	if len(order) == 1 {
		return serve(p, order[0], spans) // one request: no process to overlap it with
	}
	// Static diagnostic names: formatted per-server names were a leading
	// allocation source on this path.
	sigs := make([]*sim.Signal[error], len(order))
	for i, srv := range order {
		group := spans[at[srv]:at[srv+1]]
		done := sim.NewSignal[error](c.fs.clu.Eng, name)
		sigs[i] = done
		p.Spawn(name, func(w *sim.Proc) { done.Fire(serve(w, srv, group)) })
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
