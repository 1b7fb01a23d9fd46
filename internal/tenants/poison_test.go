package tenants

import (
	"bytes"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

// smokeFiles runs the smoke configuration — mixed reads, whole-strip
// writes from each tenant's reused buffer, and offloads reading the
// strips those writes stored — then, with the platform quiet, offloads
// the operator over every input once more, fetching whole dependent strips
// (lent by their owners to the band the kernel reads), hands a read of
// every file's first strip to the pfs.ReleaseBuffer shim, and returns the
// final bytes of every input and output file.
func smokeFiles(t *testing.T) (names []string, files map[string][]byte, e *Engine) {
	t.Helper()
	clu, fs := testPlatform(t)
	defer clu.Eng.Shutdown()
	e, err := New(clu, fs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	files = make(map[string][]byte)
	var inner error
	var lent int64 // remote strips and cache hits the final offloads' bands read in place
	clu.Eng.Spawn("tenants-poison", func(p *sim.Proc) {
		if inner = e.Setup(p); inner != nil {
			return
		}
		if inner = e.Run(p); inner != nil {
			return
		}
		node := clu.ComputeID(0)
		as, client := active.NewClient(fs, node), fs.NewClient(node)
		for i := 0; i < e.Config().Files && inner == nil; i++ {
			in, out := e.FileName(i), e.FileName(i)+".out"
			var stats active.ExecStats
			if stats, inner = as.Exec(p, e.Config().Op, in, out, active.FetchWholeStrips); inner != nil {
				return
			}
			lent += stats.RemoteFetches + stats.CacheHits
			for _, name := range []string{in, out} {
				names = append(names, name)
				// A read result is the owner's stored strip: a shim that fed
				// a pool would poison the file read back next.
				m, _ := fs.Meta(name)
				var first []byte
				if first, inner = fs.ReadStripFrom(p, node, m.Layout.Primary(0), name, 0, 0, 0); inner != nil {
					return
				}
				pfs.ReleaseBuffer(first)
				if files[name], inner = client.ReadAll(p, name); inner != nil {
					return
				}
			}
		}
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
	if err := fs.CheckSeals(); err != nil {
		t.Fatal(err)
	}
	if lent == 0 {
		t.Fatal("the final offloads fetched nothing: no band was lent a remote strip")
	}
	return names, files, e
}

// TestSmokeSurvivesPoisonedPools is the multi-tenant leg of the ownership
// check (core.TestOutputsSurvivePoisonedPools has the single-operation
// legs): with every pool scribbling over what is returned to it — a lent
// strip, were one ever released, included — the files a whole smoke run
// leaves behind must equal those of an unpoisoned replay byte for byte,
// every output must be the sequential reference of its input, and every
// stored strip must still hold what it was stored with (pfs's seal): a
// tenant that wrote into a lent window would break the seal, not the
// replay.
func TestSmokeSurvivesPoisonedPools(t *testing.T) {
	_, clean, _ := smokeFiles(t)
	done := bufpool.Audit()
	names, poisoned, e := smokeFiles(t)
	if n := done(); n != 0 {
		t.Errorf("%d pooled buffers outstanding after the smoke run", n)
	}

	for _, name := range names {
		if !bytes.Equal(poisoned[name], clean[name]) {
			t.Errorf("%s differs between the poisoned run and the clean replay", name)
		}
	}
	k, ok := kernels.Default().Lookup(e.Config().Op)
	if !ok {
		t.Fatalf("unknown operator %q", e.Config().Op)
	}
	width := int(e.Config().StripSize / grid.ElemSize)
	for i := 0; i < e.Config().Files; i++ {
		in, out := poisoned[e.FileName(i)], poisoned[e.FileName(i)+".out"]
		rows := len(in) / (width * grid.ElemSize)
		g, err := grid.FromBytes(width, rows, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := grid.FromBytes(width, rows, out)
		if err != nil {
			t.Fatal(err)
		}
		if want := kernels.Apply(k, g); !got.Equal(want) {
			t.Errorf("%s.out differs from the sequential reference of its input (max diff %g)",
				e.FileName(i), got.MaxAbsDiff(want))
		}
	}
}
