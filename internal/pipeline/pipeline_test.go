package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// One row per strip on a width-64 raster: every 3×3 kernel reaches
// ±(W+1) = ±65 elements, spanning two strip boundaries.
const (
	testW     = 64
	testH     = 32
	testStrip = 64 * grid.ElemSize
)

func chain3() kernels.DAG {
	return kernels.Chain("terrain3", []string{"gaussian-filter", "flow-routing", "flow-accumulation"}, "")
}

type testRig struct {
	clu *cluster.Cluster
	fs  *pfs.FileSystem
	svc *Service
	g   *grid.Grid
}

func newRig(t *testing.T, lay layout.Layout, w, h int, stripSize int64) *testRig {
	t.Helper()
	return newRigOn(t, cluster.Default(), lay, w, h, stripSize, func(fs *pfs.FileSystem) *Service {
		return Deploy(fs, kernels.Default(), nil, nil)
	})
}

// newRigOn is newRig on a platform of the caller's cost model (four
// compute and four storage nodes), with the pipeline service deploy puts
// on it.
func newRigOn(t *testing.T, cfg cluster.Config, lay layout.Layout, w, h int, stripSize int64,
	deploy func(*pfs.FileSystem) *Service) *testRig {
	t.Helper()
	cfg.ComputeNodes, cfg.StorageNodes = 4, 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(clu)
	svc := deploy(fs)
	g := workload.Terrain(w, h, 11)
	if _, err := fs.Create("in", g.SizeBytes(), lay, pfs.CreateOptions{
		StripSize: stripSize, Width: w, Height: h, ElemSize: grid.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
	rig := &testRig{clu: clu, fs: fs, svc: svc, g: g}
	rig.run(t, func(p *sim.Proc) error {
		return fs.NewClient(clu.ComputeID(0)).WriteAll(p, "in", g.Bytes())
	})
	return rig
}

func (r *testRig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var inner error
	r.clu.Eng.Spawn("test", func(p *sim.Proc) { inner = fn(p) })
	if err := r.clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
}

func (r *testRig) createOut(t *testing.T, name string) {
	t.Helper()
	m, _ := r.fs.Meta("in")
	if _, err := r.fs.Create(name, m.Size, m.Layout, pfs.CreateOptions{
		StripSize: m.StripSize, Width: m.Width, Height: m.Height, ElemSize: m.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
}

// priced compiles d over input with the service's registries and prices
// it as core's gate does on a cold, healthy cluster. A depth other than 0
// is forced onto the price, which is what Run fuses to.
func (r *testRig) priced(d kernels.DAG, input string, depth int) (*Plan, predict.Decision, error) {
	in, err := r.fs.Raster(input)
	if err != nil {
		return nil, predict.Decision{}, err
	}
	pl, err := Compile(d, r.svc.reg, r.svc.combs, r.svc.reds, in.Width, 0)
	if err != nil {
		return nil, predict.Decision{}, err
	}
	spec := pl.Spec(r.clu.Cfg)
	price, err := predict.Estimate(spec, predict.Params{
		ElemSize: in.ElemSize, StripSize: in.StripSize, FileSize: in.Size, Width: in.Width, OutputFactor: 1,
	}, in.Layout, predict.Observations{})
	if err != nil {
		return nil, predict.Decision{}, err
	}
	if depth != 0 {
		price.Depth, price.FusedStages = depth, spec.FusedStages(depth)
	}
	return pl, price, nil
}

// mustPrice is priced over the rig's input, failing the test on an error.
func (r *testRig) mustPrice(t *testing.T, d kernels.DAG, depth int) (*Plan, predict.Decision) {
	t.Helper()
	pl, price, err := r.priced(d, "in", depth)
	if err != nil {
		t.Fatal(err)
	}
	return pl, price
}

func (r *testRig) pipeline(t *testing.T, d kernels.DAG, input, output string) (RunResult, error) {
	t.Helper()
	return r.pipelineAt(t, d, input, output, 0)
}

// pipelineAt runs d at the given fusion depth, 0 for the priced one.
func (r *testRig) pipelineAt(t *testing.T, d kernels.DAG, input, output string, depth int) (RunResult, error) {
	t.Helper()
	pl, price, err := r.priced(d, input, depth)
	if err != nil {
		return RunResult{}, err
	}
	var res RunResult
	r.run(t, func(p *sim.Proc) error {
		res, err = r.svc.NewClient(r.clu.ComputeID(0)).Run(p, pl, price, input, output)
		return nil
	})
	return res, err
}

func (r *testRig) fetch(t *testing.T, name string) *grid.Grid {
	t.Helper()
	var data []byte
	r.run(t, func(p *sim.Proc) error {
		var err error
		data, err = r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, name)
		return err
	})
	m, _ := r.fs.Meta(name)
	g, err := grid.FromBytes(m.Width, m.Height, data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFuseSetsPrefixRoundsAndRetention: Compile finds the leading chain
// and fuses nothing; fuse takes any depth along it, sets the rounds, and
// retains exactly the state a later round reads.
func TestFuseSetsPrefixRoundsAndRetention(t *testing.T) {
	pl, err := Compile(chain3(), kernels.Default(), nil, nil, testW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chain != 3 || pl.Prefix != 1 {
		t.Fatalf("chain %d prefix %d, want 3 and 1", pl.Chain, pl.Prefix)
	}
	// Each 3×3 stage has Halo W+1 = 65; from-input evaluation depths sum
	// along the chain: 65, 130, 195.
	for i, n := range pl.Nodes {
		if want := int64(65 * (i + 1)); n.EvalHalo != want {
			t.Errorf("node %d EvalHalo %d, want %d", i, n.EvalHalo, want)
		}
	}
	for depth := 1; depth <= pl.Chain; depth++ {
		if err := pl.fuse(depth); err != nil {
			t.Fatal(err)
		}
		if pl.Prefix != depth || pl.Rounds() != 1+pl.GridOut+1-depth {
			t.Errorf("depth %d: prefix %d rounds %d", depth, pl.Prefix, pl.Rounds())
		}
		// A stage is retained when a later round reads it: every stage from
		// the prefix's last up to the one before the grid output.
		for i, n := range pl.Nodes {
			if want := i >= depth-1 && i < pl.GridOut; n.Retain != want {
				t.Errorf("depth %d: node %d Retain %v, want %v", depth, i, n.Retain, want)
			}
		}
		if lin, _ := pl.work(0, false); lin.depth != pl.Nodes[depth-1].EvalHalo {
			t.Errorf("depth %d: round 0 reads the input %d past a run, want %d", depth, lin.depth, pl.Nodes[depth-1].EvalHalo)
		}
	}
	for _, depth := range []int{0, 4} {
		if err := pl.fuse(depth); err == nil {
			t.Errorf("depth %d outside the chain accepted", depth)
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	reg := kernels.Default()
	if _, err := Compile(chain3(), reg, nil, nil, 0, 0); err == nil {
		t.Error("Compile accepted zero width")
	}
	bad := kernels.Chain("bad", []string{"no-such-kernel"}, "")
	if _, err := Compile(bad, reg, nil, nil, testW, 0); err == nil {
		t.Error("Compile accepted unknown kernel")
	}
}

func TestPipelineChainMatchesReference(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	d := chain3()
	res, err := rig.pipelineAt(t, d, "in", "out", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("pipelined output differs from sequential DAG reference")
	}
	// Unfused on round-robin: round 0 fetches input boundary rows and
	// every later stage streams halo bands server-to-server.
	if res.FetchBytes == 0 {
		t.Errorf("no input halo fetches: %+v", res)
	}
	if res.ExchangeBytes == 0 {
		t.Errorf("no inter-stage halo exchange: %+v", res)
	}
	if res.Rounds != 3 || res.Stages != 3 || res.FusedStages != 0 {
		t.Errorf("shape rounds=%d stages=%d fused=%d, want 3/3/0", res.Rounds, res.Stages, res.FusedStages)
	}
	if res.Elements != rig.g.Len()*int64(res.Rounds) {
		t.Errorf("processed %d elements, want %d per round over %d rounds", res.Elements, rig.g.Len(), res.Rounds)
	}
	if res.LowerBoundBytes <= 0 || res.AchievedHaloBytes < res.LowerBoundBytes {
		t.Errorf("achieved %d below lower bound %d", res.AchievedHaloBytes, res.LowerBoundBytes)
	}
}

func TestPipelineFusedPrefixSkipsExchange(t *testing.T) {
	audited(t)
	// Replica halo of 3 strips (192 elements) covers the two-stage
	// from-input depth 130: fused two deep, round 0 fetches nothing and
	// only the third stage exchanges.
	rig := newRig(t, layout.NewGroupedReplicated(4, 8, 3), testW, testH, testStrip)
	rig.createOut(t, "out")
	d := chain3()
	res, err := rig.pipelineAt(t, d, "in", "out", 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("fused output differs from sequential DAG reference")
	}
	if res.Rounds != 2 || res.FusedStages != 1 || res.FetchBytes != 0 || res.ExchangeBytes == 0 {
		t.Errorf("shape rounds=%d fused=%d fetch=%d exchange=%d, want 2/1/0/some",
			res.Rounds, res.FusedStages, res.FetchBytes, res.ExchangeBytes)
	}
}

func TestPipelineReduceMatchesReduceStriped(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	d := kernels.Chain("terrain-stats", []string{"gaussian-filter", "flow-routing"}, "stats")
	res, err := rig.pipeline(t, d, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("reduced DAG grid output differs from reference")
	}
	wantRed := kernels.ReduceStriped(kernels.Stats{}, want, testStrip/grid.ElemSize)
	if len(res.Reduce) != len(wantRed) {
		t.Fatalf("reduce len %d, want %d", len(res.Reduce), len(wantRed))
	}
	for i := range wantRed {
		if res.Reduce[i] != wantRed[i] {
			t.Errorf("reduce[%d] = %v, want %v (canonical strip merge)", i, res.Reduce[i], wantRed[i])
		}
	}
}

func TestPipelineDiamondMatchesReference(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	d := kernels.DAG{Name: "diamond", Nodes: []kernels.Node{
		{ID: "a", Kind: kernels.KindKernel, Op: "gaussian-filter"},
		{ID: "b", Kind: kernels.KindKernel, Op: "surface-slope"},
		{ID: "c", Kind: kernels.KindCombine, Op: "add", Parents: []string{"a", "b"}},
		{ID: "d", Kind: kernels.KindKernel, Op: "diffusion", Parents: []string{"c"}},
	}}
	res, err := rig.pipeline(t, d, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("diamond output differs from sequential DAG reference")
	}
	// The combine adds no reach and folds into its round for free.
	if res.Stages != 4 {
		t.Errorf("stages %d, want 4", res.Stages)
	}
}

func TestPipelineDeterministicReplay(t *testing.T) {
	type capture struct {
		Res   RunResult
		Bytes []byte
	}
	once := func() capture {
		rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
		rig.createOut(t, "out")
		res, err := rig.pipeline(t, chain3(), "in", "out")
		if err != nil {
			t.Fatal(err)
		}
		return capture{Res: res, Bytes: rig.fetch(t, "out").Bytes()}
	}
	a, _ := json.Marshal(once())
	b, _ := json.Marshal(once())
	if !bytes.Equal(a, b) {
		t.Error("two identical pipeline runs diverged")
	}
}

func TestPipelineSurvivesMidRunCrashByteIdentical(t *testing.T) {
	audited(t)
	// Full mirroring (halo == r): any single crash leaves a live copy of
	// every strip, so reassignment plus catch-up can always finish.
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := chain3()
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), workload.Terrain(testW, testH, 11))
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free baseline to aim the crash mid-run.
	base := newRig(t, lay, testW, testH, testStrip)
	base.createOut(t, "out")
	start := base.clu.Eng.Now()
	if _, err := base.pipeline(t, d, "in", "out"); err != nil {
		t.Fatal(err)
	}
	elapsed := base.clu.Eng.Now() - start

	rig := newRig(t, lay, testW, testH, testStrip)
	rig.createOut(t, "out")
	plan := fault.Plan{Events: []fault.Event{
		{At: rig.clu.Eng.Now() + elapsed/2, Kind: fault.Crash, Server: 1},
	}}
	if err := rig.clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	res, err := rig.pipeline(t, d, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("output under mid-run crash differs from sequential reference")
	}
	if res.Redispatches == 0 && res.CatchUps == 0 {
		t.Errorf("crash mid-run triggered no recovery: %+v", res)
	}
}

func TestPipelineCrashRestartPurgesStateAndCatchesUp(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := chain3()
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), workload.Terrain(testW, testH, 11))
	if err != nil {
		t.Fatal(err)
	}
	base := newRig(t, lay, testW, testH, testStrip)
	base.createOut(t, "out")
	start := base.clu.Eng.Now()
	if _, err := base.pipeline(t, d, "in", "out"); err != nil {
		t.Fatal(err)
	}
	elapsed := base.clu.Eng.Now() - start

	rig := newRig(t, lay, testW, testH, testStrip)
	rig.createOut(t, "out")
	now := rig.clu.Eng.Now()
	// Crash early, restart quickly: the server returns with a new
	// incarnation and empty memory, so its strips must be reassigned or
	// caught up, never served from ghost state.
	plan := fault.Plan{Events: []fault.Event{
		{At: now + elapsed/4, Kind: fault.Crash, Server: 2},
		{At: now + elapsed/2, Kind: fault.Restart, Server: 2},
	}}
	if err := rig.clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	res, err := rig.pipeline(t, d, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("output under crash+restart differs from sequential reference")
	}
	if res.Redispatches == 0 && res.CatchUps == 0 {
		t.Errorf("crash+restart triggered no recovery: %+v", res)
	}
}

func TestPipelineReleaseDropsServerState(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	if _, err := rig.pipeline(t, chain3(), "in", "out"); err != nil {
		t.Fatal(err)
	}
	for s, runs := range rig.svc.runs {
		if len(runs) != 0 {
			t.Errorf("server %d still holds %d run states after release", s, len(runs))
		}
	}
}

func TestRunErrorPaths(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	if _, err := rig.pipeline(t, chain3(), "missing", "out"); err == nil || !strings.Contains(err.Error(), "unknown input") {
		t.Errorf("missing input error %v", err)
	}
	if _, err := rig.pipeline(t, chain3(), "in", "missing"); err == nil || !strings.Contains(err.Error(), "unknown output") {
		t.Errorf("missing output error %v", err)
	}
	m, _ := rig.fs.Meta("in")
	if _, err := rig.fs.Create("small", m.StripSize, m.Layout, pfs.CreateOptions{
		StripSize: m.StripSize, Width: m.Width, Height: 1, ElemSize: m.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.pipeline(t, chain3(), "in", "small"); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("geometry mismatch error %v", err)
	}
	if _, err := rig.pipeline(t, kernels.Chain("bad", []string{"nope"}, ""), "in", "out"); err == nil {
		t.Error("unknown kernel accepted")
	}
}
