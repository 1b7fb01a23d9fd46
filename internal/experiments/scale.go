// Scale workload: the engine-scaling request storm bench/'s `storm`
// workload times. It runs a fixed, fully deterministic PFS request mix on
// clusters from paper-size (24 nodes) to far beyond, so the DES core's
// per-event cost — not the modeled system — dominates, and reports
// simulation outputs precise enough to assert byte-identity against
// recorded goldens (ScaleGolden).
package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

// ScaleOptions parameterizes one scale-benchmark run.
type ScaleOptions struct {
	// Nodes is the total node count, split 1:1 compute:storage.
	Nodes int
	// OpsPerClient is how many sequential PFS operations each compute node
	// issues. Zero selects the standard 256.
	OpsPerClient int
	// Seed drives the deterministic request mix and strip contents.
	Seed uint64
}

// Scale-workload geometry: one file striped round-robin over all servers,
// scaleStripsPerServer strips per server, small strips so request
// dispatch — not byte movement — dominates the event count.
const (
	scaleFile            = "scale"
	scaleStripSize       = 1024
	scaleStripsPerServer = 8
	scaleDefaultOps      = 256
)

// clientRng seeds client c's private operation stream.
func clientRng(seed uint64, c int) lcg {
	return lcg(seed + uint64(c)*0x9e3779b97f4a7c15 + 1)
}

// scaleRun is the state every client shares: the platform handles and the
// result accumulators.
type scaleRun struct {
	fs            *pfs.FileSystem
	lay           layout.Layout
	strips        int64
	ops           int
	sums          []uint64
	reads, writes int64
}

// scaleClient is one compute node's workload as a task chain: its start
// event is where a client process would spawn, each response continuation
// where the process would wake from its RPC.
type scaleClient struct {
	run  *scaleRun
	id   int
	node int
	rng  lcg
	sum  uint64
	i    int
	wbuf []byte
	// onRead/onWrite hold the bound continuation methods so per-op calls
	// allocate nothing.
	onRead  func(data []byte, err error)
	onWrite func(err error)
}

// RunTask is the client's start event: issue the first operation.
func (c *scaleClient) RunTask() { c.step() }

// step issues operation i, or records the final checksum when done.
func (c *scaleClient) step() {
	r := c.run
	if c.i == r.ops {
		r.sums[c.id] = c.sum
		return
	}
	i := c.i
	c.i++
	strip := int64(c.rng.next() % uint64(r.strips))
	target := r.lay.Primary(strip)
	if i%8 == 7 {
		fillStrip(c.wbuf, c.rng.next(), strip)
		r.fs.WriteStripToTask(c.node, target, scaleFile, strip, c.wbuf, true, c.onWrite)
		return
	}
	r.fs.ReadStripFromTask(c.node, target, scaleFile, strip, 0, 0, c.onRead)
}

func (c *scaleClient) readDone(data []byte, err error) {
	if err != nil {
		panic(err)
	}
	c.sum = fnvMix(c.sum, stripSum(data))
	c.run.reads++
	c.step()
}

func (c *scaleClient) writeDone(err error) {
	if err != nil {
		panic(err)
	}
	c.run.writes++
	c.step()
}

// ScaleStats is everything a scale run outputs. Every field except Nodes
// and Ops is a simulation output: two runs of the same options must match
// exactly, and SameSimulation asserts exactly that.
type ScaleStats struct {
	Nodes  int
	Ops    int64
	Reads  int64
	Writes int64
	// Events and SimTime are the engine's dispatch count and final clock.
	Events  uint64
	SimTime sim.Time
	// Traffic is the per-class byte count snapshot.
	Traffic map[metrics.TrafficClass]int64
	// Checksum folds every byte read by every client, in program order
	// within each client.
	Checksum uint64
	// KernelSum is a Gaussian-filter reduction over a grid derived from the
	// read data — a stand-in for "the kernel results" in identity checks.
	KernelSum float64
}

// SameSimulation reports whether two runs produced identical simulation
// outputs: event count, virtual time, traffic, data, and kernel result.
func (s ScaleStats) SameSimulation(o ScaleStats) bool {
	return s.Events == o.Events &&
		s.SimTime == o.SimTime &&
		s.Reads == o.Reads &&
		s.Writes == o.Writes &&
		s.Checksum == o.Checksum &&
		s.KernelSum == o.KernelSum &&
		metrics.SnapshotsEqual(s.Traffic, o.Traffic)
}

// scaleGoldens are ScaleStats recorded from the classic engine
// construction — process-per-event dispatch, binary-heap queue, a process
// per client and per request handler — at the last commit that carried it
// (acc2a8c), before it was deleted. They are the identity oracle that
// construction used to be: the task-chain engine must reproduce every
// field; the scale tests run all four.
var scaleGoldens = map[ScaleOptions]ScaleStats{
	{Nodes: 64, OpsPerClient: 32, Seed: 7}: {
		Nodes: 64, Ops: 1024, Reads: 896, Writes: 128, Events: 10715, SimTime: 20097764,
		Traffic:  scaleTraffic(262144, 1048576, 917504, 131072),
		Checksum: 0x6a6f0427e7edc1b7, KernelSum: 32870.3125,
	},
	{Nodes: 24, OpsPerClient: 24, Seed: 3}: {
		Nodes: 24, Ops: 288, Reads: 252, Writes: 36, Events: 3049, SimTime: 12158427,
		Traffic:  scaleTraffic(73728, 294912, 258048, 36864),
		Checksum: 0x24c817f244a92e3f, KernelSum: 33006.4375,
	},
	{Nodes: 640, OpsPerClient: 16, Seed: 11}: {
		Nodes: 640, Ops: 5120, Reads: 4480, Writes: 640, Events: 53938, SimTime: 16329765,
		Traffic:  scaleTraffic(1310720, 5242880, 4587520, 655360),
		Checksum: 0x10c0cf2715117d98, KernelSum: 31876.8125,
	},
	{Nodes: 640, OpsPerClient: 32, Seed: 11}: {
		Nodes: 640, Ops: 10240, Reads: 8960, Writes: 1280, Events: 107114, SimTime: 23937342,
		Traffic:  scaleTraffic(2621440, 10485760, 9175040, 1310720),
		Checksum: 0x58f33318f919c57, KernelSum: 32441.25,
	},
}

// scaleTraffic builds a golden's traffic snapshot; the scale workload
// moves no server-to-server bytes.
func scaleTraffic(c2s, s2c, diskRead, diskWrite int64) map[metrics.TrafficClass]int64 {
	return map[metrics.TrafficClass]int64{
		metrics.ClientToServer: c2s, metrics.ServerToClient: s2c, metrics.ServerToServer: 0,
		metrics.DiskRead: diskRead, metrics.DiskWrite: diskWrite,
	}
}

// ScaleGolden returns the recorded outputs for opts, if a golden exists.
func ScaleGolden(opts ScaleOptions) (ScaleStats, bool) {
	st, ok := scaleGoldens[opts]
	return st, ok
}

// lcg is the benchmark's deterministic random stream (64-bit LCG,
// Knuth/MMIX constants). Top bits only: the low bits of an LCG cycle
// short.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 16
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into a running FNV-1a-style hash.
func fnvMix(h, w uint64) uint64 {
	return (h ^ w) * fnvPrime
}

// stripSum digests a strip: its length plus a stride of 8-byte words.
// Strip contents are pseudo-random functions of (seed, strip), so any
// stale or misrouted data diverges at essentially every word and a sparse
// sample catches it; hashing every byte would just move the benchmark's
// hot path from the engine into the checksum.
func stripSum(data []byte) uint64 {
	h := fnvMix(fnvOffset, uint64(len(data)))
	for i := 0; i+8 <= len(data); i += 64 {
		w := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24 |
			uint64(data[i+4])<<32 | uint64(data[i+5])<<40 | uint64(data[i+6])<<48 | uint64(data[i+7])<<56
		h = fnvMix(h, w)
	}
	return h
}

// RunScale executes the scale workload once and returns its outputs.
func RunScale(opts ScaleOptions) (ScaleStats, error) {
	r, err := PrepareScale(opts)
	if err != nil {
		return ScaleStats{}, err
	}
	return r.Run()
}

// ScaleRunner is a scale benchmark with its cluster built, data preloaded,
// and clients scheduled, ready for its single Run. The two-phase API lets
// a harness time the engine's dispatch work alone — events only dispatch
// inside Run — apart from construction and preload.
type ScaleRunner struct {
	opts ScaleOptions
	clu  *cluster.Cluster
	run  *scaleRun
}

// PrepareScale builds the cluster and workload for one scale run.
//
// The workload: every compute node runs a client issuing OpsPerClient
// sequential PFS requests against one round-robin file spanning all
// servers — mostly whole-strip reads (checksummed), every eighth
// operation a whole-strip write. The dataset is preloaded without
// simulated cost, so the measured region is pure request traffic.
func PrepareScale(opts ScaleOptions) (*ScaleRunner, error) {
	if opts.Nodes <= 0 || opts.Nodes%2 != 0 {
		return nil, fmt.Errorf("experiments: scale node count %d must be positive and even", opts.Nodes)
	}
	ops := opts.OpsPerClient
	if ops <= 0 {
		ops = scaleDefaultOps
	}
	cfg := cluster.Default()
	cfg.ComputeNodes = opts.Nodes / 2
	cfg.StorageNodes = opts.Nodes / 2
	clu, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	fs := pfs.New(clu)
	servers := fs.Servers()
	strips := int64(servers) * scaleStripsPerServer
	if _, err := fs.Create(scaleFile, strips*scaleStripSize, layout.NewRoundRobin(servers), pfs.CreateOptions{StripSize: scaleStripSize}); err != nil {
		return nil, err
	}

	// Preload every strip on its primary holder, contents drawn from the
	// seed. No simulated cost: the benchmark measures request traffic, not
	// ingest.
	lay := layout.NewRoundRobin(servers)
	buf := make([]byte, scaleStripSize)
	for s := int64(0); s < strips; s++ {
		fillStrip(buf, opts.Seed, s)
		fs.Server(lay.Primary(s)).Preload(scaleFile, s, buf)
	}

	clients := cfg.ComputeNodes
	run := &scaleRun{fs: fs, lay: lay, strips: strips, ops: ops, sums: make([]uint64, clients)}
	// Each client is a task chain — its start event and every per-op resume
	// dispatch inline, touching no goroutine.
	for c := 0; c < clients; c++ {
		cl := &scaleClient{
			run:  run,
			id:   c,
			node: clu.ComputeID(c),
			rng:  clientRng(opts.Seed, c),
			sum:  fnvOffset,
			wbuf: make([]byte, scaleStripSize),
		}
		cl.onRead, cl.onWrite = cl.readDone, cl.writeDone
		clu.Eng.ScheduleTask(0, cl)
	}
	return &ScaleRunner{opts: opts, clu: clu, run: run}, nil
}

// Run executes the prepared workload and returns its outputs. It may be
// called once.
func (r *ScaleRunner) Run() (ScaleStats, error) {
	opts, clu, run := r.opts, r.clu, r.run
	if err := clu.Eng.Run(); err != nil {
		return ScaleStats{}, err
	}
	// A dropped reply would otherwise show only as a lower op count.
	if err := clu.Net.CheckReplies(); err != nil {
		return ScaleStats{}, err
	}
	if err := run.fs.CheckSeals(); err != nil {
		return ScaleStats{}, err
	}
	reads, writes := run.reads, run.writes

	// Fold the per-client checksums in client order, then feed a small grid
	// derived from them through a real kernel: the "kernel result" leg of
	// the identity check.
	sum := uint64(fnvOffset)
	for _, s := range run.sums {
		sum = fnvMix(sum, s)
	}
	const kw, kh = 32, 32
	g := grid.New(kw, kh)
	kg := lcg(sum)
	for i := range g.Data {
		g.Data[i] = float64(kg.next()%1024) / 16
	}
	out := kernels.Apply(kernels.Gaussian{}, g)
	var ksum float64
	for _, v := range out.Data {
		ksum += v
	}

	stats := ScaleStats{
		Nodes:     opts.Nodes,
		Ops:       reads + writes,
		Reads:     reads,
		Writes:    writes,
		Events:    clu.Eng.Events(),
		SimTime:   clu.Eng.Now(),
		Traffic:   clu.Traffic.Snapshot(),
		Checksum:  sum,
		KernelSum: ksum,
	}
	clu.Eng.Shutdown()
	return stats, nil
}

// fillStrip fills buf with the deterministic contents of a strip: a
// function of (seed, strip) only, so writers regenerate what preload
// placed and checksums are reproducible. One LCG step fills eight bytes —
// the fill must stay cheap for the same reason stripSum samples.
func fillStrip(buf []byte, seed uint64, strip int64) {
	g := lcg(seed ^ uint64(strip)*0xd1342543de82ef95)
	for i := 0; i+8 <= len(buf); i += 8 {
		v := g.next()
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
		buf[i+4] = byte(v >> 32)
		buf[i+5] = byte(v >> 40)
		buf[i+6] = byte(v >> 48)
		buf[i+7] = byte(v >> 56)
	}
}
