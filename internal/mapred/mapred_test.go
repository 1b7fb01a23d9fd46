package mapred

import (
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

const (
	testW     = 64
	testH     = 32
	testStrip = int64(testW * grid.ElemSize)
)

// rig builds a collocated platform (MapReduce's native deployment) with an
// ingested raster on the round-robin layout a DFS would use.
func rig(t *testing.T, nodes int, g *grid.Grid) (*cluster.Cluster, *pfs.FileSystem) {
	t.Helper()
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = nodes, nodes
	cfg.Collocated = true
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(clu)
	if _, err := fs.Create("in", g.SizeBytes(), layout.NewRoundRobin(nodes), pfs.CreateOptions{
		StripSize: testStrip, Width: g.W, Height: g.H, ElemSize: grid.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
	var inner error
	clu.Eng.Spawn("ingest", func(p *sim.Proc) {
		inner = fs.NewClient(clu.ComputeID(0)).WriteAll(p, "in", g.Bytes())
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
	return clu, fs
}

func runJob(t *testing.T, clu *cluster.Cluster, fs *pfs.FileSystem, job Job) Stats {
	t.Helper()
	runner := NewRunner(fs, kernels.Default())
	var stats Stats
	var runErr error
	clu.Eng.Spawn("mapred-job", func(p *sim.Proc) {
		stats, runErr = runner.Run(p, job)
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return stats
}

func fetch(t *testing.T, clu *cluster.Cluster, fs *pfs.FileSystem, name string) *grid.Grid {
	t.Helper()
	var data []byte
	var err error
	clu.Eng.Spawn("fetch", func(p *sim.Proc) {
		data, err = fs.NewClient(clu.ComputeID(0)).ReadAll(p, name)
	})
	if e := clu.Eng.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	m, _ := fs.Meta(name)
	g, err := grid.FromBytes(m.Width, m.Height, data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMapReduceMatchesReference: the MR execution of every stencil kernel
// must reproduce the sequential result exactly, halos shuffled and all.
func TestMapReduceMatchesReference(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	for _, op := range []string{"flow-routing", "gaussian-filter", "median-filter", "diffusion"} {
		op := op
		t.Run(op, func(t *testing.T) {
			clu, fs := rig(t, 4, g)
			stats := runJob(t, clu, fs, Job{Op: op, Input: "in", Output: "out"})
			k, _ := kernels.Default().Lookup(op)
			want := kernels.Apply(k, g)
			if got := fetch(t, clu, fs, "out"); !got.Equal(want) {
				t.Error("MapReduce output differs from sequential reference")
			}
			if stats.MapTime <= 0 || stats.ReduceTime <= 0 {
				t.Errorf("phase times: %+v", stats)
			}
			if stats.MaterializedBytes < g.SizeBytes() {
				t.Errorf("materialized %d bytes, want ≥ input size", stats.MaterializedBytes)
			}
			if stats.ShuffledBytes == 0 {
				t.Error("no halo bytes shuffled despite round-robin placement")
			}
		})
	}
}

func TestMapReduceOutputReplicated(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	clu, fs := rig(t, 4, g)
	stats := runJob(t, clu, fs, Job{Op: "flow-routing", Input: "in", Output: "out", Replication: 2})
	m, _ := fs.Meta("out")
	for s := int64(0); s < m.Strips(); s++ {
		holders := m.Layout.Holders(s)
		if holders.Len() != 2 {
			t.Fatalf("strip %d has %d holders, want 2", s, holders.Len())
		}
		for i := 0; i < holders.Len(); i++ {
			if h := holders.At(i); !fs.Server(h).Holds("out", s) {
				t.Errorf("server %d missing replica of output strip %d", h, s)
			}
		}
	}
	if stats.OutputReplicaBytes < g.SizeBytes() {
		t.Errorf("replica bytes %d, want ≥ output size at factor 2", stats.OutputReplicaBytes)
	}
	_ = clu
}

func TestMapReduceValidation(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	clu, fs := rig(t, 4, g)
	runner := NewRunner(fs, kernels.Default())
	var err1, err2 error
	clu.Eng.Spawn("bad", func(p *sim.Proc) {
		_, err1 = runner.Run(p, Job{Op: "nope", Input: "in", Output: "o1"})
		_, err2 = runner.Run(p, Job{Op: "flow-routing", Input: "missing", Output: "o2"})
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err1 == nil || err2 == nil {
		t.Error("invalid jobs accepted")
	}
}

// TestShuffleLeavesNoMessageQueued: a shuffle segment reaches its reducer
// through the pull's signal, and the transfer that charges its bytes
// delivers nothing, so no port holds an unread message after the job.
func TestShuffleLeavesNoMessageQueued(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	clu, fs := rig(t, 4, g)
	if stats := runJob(t, clu, fs, Job{Op: "flow-routing", Input: "in", Output: "out"}); stats.ShuffledBytes == 0 {
		t.Fatal("the job shuffled nothing")
	}
	for srv := 0; srv < fs.Servers(); srv++ {
		if n := clu.Net.Node(fs.Server(srv).NodeID()).Port("shuffle").Len(); n != 0 {
			t.Errorf("server %d: %d shuffle segments left queued", srv, n)
		}
	}
	if err := clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}
