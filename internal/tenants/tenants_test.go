package tenants

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// testPlatform deploys a small platform with live AS helpers.
func testPlatform(t *testing.T) (*cluster.Cluster, *pfs.FileSystem) {
	t.Helper()
	cfg := cluster.Default()
	cfg.ComputeNodes = 4
	cfg.StorageNodes = 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(clu)
	active.Deploy(fs, kernels.Default(), nil)
	return clu, fs
}

// testConfig is a run small enough for the race detector but big enough
// to exercise skew, phases, offloads, and admission.
func testConfig() Config {
	return Config{
		Tenants:      32,
		Files:        16,
		OpsPerTenant: 6,
		Seed:         7,
		Phases: []Phase{
			{FromOp: 2, Mix: Mix{Read: 70, Write: 20, Offload: 10}, Rotate: 8},
			{FromOp: 4, Mix: Mix{Read: 20, Write: 70, Offload: 10}, Rotate: 8},
		},
		MaxQueueDepth: 8,
	}
}

// runReport is the byte-compared determinism artifact.
type runReport struct {
	Elapsed  sim.Time      `json:"elapsed"`
	Tenants  []TenantStats `json:"tenants"`
	Queues   []QueueStats  `json:"queues"`
	Totals   Totals        `json:"totals"`
	Fairness Fairness      `json:"fairness"`
	Top      []FileOps     `json:"top_files"`
}

// runOnce executes one full Setup+Run on a fresh platform and returns the
// serialized report.
func runOnce(t *testing.T, cfg Config) ([]byte, *Engine) {
	t.Helper()
	clu, fs := testPlatform(t)
	defer clu.Eng.Shutdown()
	e, err := New(clu, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inner error
	var start sim.Time
	clu.Eng.Spawn("tenants-test", func(p *sim.Proc) {
		if inner = e.Setup(p); inner != nil {
			return
		}
		start = p.Now()
		inner = e.Run(p)
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
	rep := runReport{
		Elapsed:  clu.Eng.Now() - start,
		Tenants:  e.TenantStats(),
		Queues:   e.QueueStats(),
		Totals:   e.Totals(),
		Fairness: e.Fairness(),
		Top:      e.TopFiles(5),
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b, e
}

// TestReplayDeterminism runs the same configuration twice on fresh
// platforms and requires byte-identical reports — the engine's core
// contract.
func TestReplayDeterminism(t *testing.T) {
	b1, _ := runOnce(t, testConfig())
	b2, _ := runOnce(t, testConfig())
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replay diverged:\n%s\n%s", b1, b2)
	}
}

// TestStreamsComplete checks the accounting adds up: every stream issues
// its configured operations (completed plus shed), all three kinds occur,
// and latency sketches hold exactly the completed operations.
func TestStreamsComplete(t *testing.T) {
	_, e := runOnce(t, testConfig())
	tot := e.Totals()
	want := int64(testConfig().Tenants * testConfig().OpsPerTenant)
	if tot.Ops+tot.Sheds != want {
		t.Fatalf("ops %d + sheds %d != issued %d", tot.Ops, tot.Sheds, want)
	}
	if tot.Reads == 0 || tot.Writes == 0 || tot.Offloads == 0 {
		t.Fatalf("some operation kind never ran: %+v", tot)
	}
	if tot.Ops != tot.Reads+tot.Writes+tot.Offloads {
		t.Fatalf("kind counts %d+%d+%d disagree with ops %d", tot.Reads, tot.Writes, tot.Offloads, tot.Ops)
	}
	var fileOps int64
	for _, f := range e.TopFiles(0) {
		fileOps += f.Ops
	}
	if fileOps != tot.Ops {
		t.Fatalf("per-file ops %d != total %d", fileOps, tot.Ops)
	}
	fair := e.Fairness()
	if fair.Tenants == 0 || fair.MaxP99Nanos < fair.MinP99Nanos {
		t.Fatalf("degenerate fairness %+v", fair)
	}
}

// TestEveryAdmissionTicketReturns runs the bounded mix — reads, writes
// and offloads, each holding tickets from admission to completion — and
// requires Run to end with no ticket held on any server; a held one is
// reported naming its server and count.
func TestEveryAdmissionTicketReturns(t *testing.T) {
	_, e := runOnce(t, testConfig()) // fails if Run reports a held ticket
	for s, n := range e.tickets {
		if n != 0 {
			t.Errorf("server %d holds %d tickets after Run", s, n)
		}
	}
	e.tickets[2] = 3
	err := e.checkTickets()
	if err == nil || !strings.Contains(err.Error(), "server 2 holds 3 admission tickets") {
		t.Errorf("checkTickets with 3 tickets left on server 2: %v", err)
	}
}

// TestAdmissionBoundsQueueDepth compares an unbounded run against a
// bounded one: the admission gate must keep the arrival-sampled depth
// tail near the bound while the unbounded run exceeds it.
func TestAdmissionBoundsQueueDepth(t *testing.T) {
	cfg := testConfig()
	cfg.ThinkTime = 1 // near-lockstep closed loop: maximum pressure
	cfg.Tenants = 64

	unb := cfg
	unb.MaxQueueDepth = 0
	_, eu := runOnce(t, unb)

	bnd := cfg
	bnd.MaxQueueDepth = 6
	_, eb := runOnce(t, bnd)

	maxP99 := func(qs []QueueStats) int64 {
		var m int64
		for _, q := range qs {
			if q.P99 > m {
				m = q.P99
			}
		}
		return m
	}
	up, bp := maxP99(eu.QueueStats()), maxP99(eb.QueueStats())
	if up <= int64(bnd.MaxQueueDepth) {
		t.Skipf("unbounded run never saturated (p99 depth %d): config too small to compare", up)
	}
	// The gate samples depth at admission, so in-flight gaps allow a small
	// overshoot — but the tail must sit well under the unbounded run's and
	// within 2x the configured bound.
	if bp > 2*int64(bnd.MaxQueueDepth) {
		t.Fatalf("bounded queue p99 %d exceeds 2x bound %d", bp, bnd.MaxQueueDepth)
	}
	if bp >= up {
		t.Fatalf("bounded queue p99 %d not below unbounded %d", bp, up)
	}
	if eb.Totals().Deferrals == 0 {
		t.Fatal("bounded run never deferred — the gate never engaged")
	}
}

// TestHotSetRotation checks that a rotation phase actually moves the Zipf
// head: with rotation the most-popular file's share shrinks versus the
// same run without phases.
func TestHotSetRotation(t *testing.T) {
	base := testConfig()
	base.Phases = nil
	base.MaxQueueDepth = 0
	base.Mix = Mix{Read: 70, Write: 20, Offload: 10}
	_, eStatic := runOnce(t, base)

	rot := base
	rot.Phases = []Phase{{FromOp: 3, Mix: base.Mix, Rotate: base.Files / 2}}
	_, eRot := runOnce(t, rot)

	topStatic := eStatic.TopFiles(1)
	topRot := eRot.TopFiles(1)
	if len(topStatic) == 0 || len(topRot) == 0 {
		t.Fatal("no file operations recorded")
	}
	if topRot[0].Ops >= topStatic[0].Ops {
		t.Fatalf("rotation did not spread the hot set: top file %d ops with rotation vs %d without",
			topRot[0].Ops, topStatic[0].Ops)
	}
}

// TestConfigValidation covers Normalize's rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{StripsPerFileMin: 8, StripsPerFileMax: 4},
		{StripSize: 12},
		{ZipfSkew: -1},
		{MaxQueueDepth: -1},
		{Mix: Mix{Read: -1, Write: 2, Offload: 0}},
		{Phases: []Phase{{FromOp: 0, Mix: Mix{Read: 1}}}},
		{Phases: []Phase{{FromOp: 3, Mix: Mix{Read: 1}}, {FromOp: 2, Mix: Mix{Read: 1}}}},
	}
	for i, cfg := range bad {
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := (Config{}).Normalize(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestLifecycleGuards covers the Setup/Run ordering contract.
func TestLifecycleGuards(t *testing.T) {
	clu, fs := testPlatform(t)
	defer clu.Eng.Shutdown()
	e, err := New(clu, fs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	clu.Eng.Spawn("guards", func(p *sim.Proc) {
		runErr = e.Run(p)
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("Run before Setup accepted")
	}
}

// TestSetupSpreadsPrimaries: file i starts on server i mod D, so after
// Setup no server owns more than a file's worth of primary strips beyond
// its share — under the default round-robin policy and under a grouped
// policy installed with SetLayouts, whose first group would otherwise put
// every file's head on server 0. Each input and its output share a layout,
// after Setup and again once a restripe has moved the input and an offload
// has run over it.
func TestSetupSpreadsPrimaries(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy func(d int) func(int, int64) layout.Layout
	}{
		{"default", nil},
		{"grouped", func(d int) func(int, int64) layout.Layout {
			return func(int, int64) layout.Layout { return layout.NewGroupedReplicated(d, 8, 2) }
		}},
	} {
		name, policy := pol.name, pol.policy
		clu, fs := testPlatform(t)
		cfg := testConfig()
		cfg.Files = 32
		e, err := New(clu, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if policy != nil {
			e.SetLayouts(policy(fs.Servers()))
		}
		var setupErr error
		clu.Eng.Spawn("setup", func(p *sim.Proc) { setupErr = e.Setup(p) })
		if err := clu.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if setupErr != nil {
			t.Fatal(setupErr)
		}
		shareLayouts := func(when string) {
			for i := 0; i < cfg.Files; i++ {
				in, _ := fs.Meta(e.FileName(i))
				out, _ := fs.Meta(e.FileName(i) + ".out")
				if in.Layout != out.Layout {
					t.Errorf("%s, %s: %s is placed %s, its output %s", name, when, in.Name, in.Layout.Name(), out.Layout.Name())
				}
			}
		}
		shareLayouts("after setup")
		owned := make([]int64, fs.Servers())
		var total int64
		for i := 0; i < cfg.Files; i++ {
			in, _ := fs.Meta(e.FileName(i))
			for s := int64(0); s < in.Strips(); s++ {
				owned[in.Layout.Primary(s)]++
			}
			total += in.Strips()
		}
		mean := total / int64(len(owned))
		for srv, n := range owned {
			if n > mean+int64(e.Config().StripsPerFileMax) || n < mean-int64(e.Config().StripsPerFileMax) {
				t.Errorf("%s: server %d owns %d primaries, mean %d (per server %v)", name, srv, n, mean, owned)
			}
		}

		// Restripe every input, then offload it: the output moves with it.
		mig, err := restripe.NewMigrator(clu, fs, restripe.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fs.SetInvalidator(mig)
		var restripeErr error
		clu.Eng.Spawn("restripe", func(p *sim.Proc) {
			as := active.NewClient(fs, clu.ComputeID(0))
			for i := range e.files {
				target := layout.StartingAt(layout.NewGroupedReplicated(fs.Servers(), 2, 1), i+1)
				if restripeErr = mig.Migrate(p, e.files[i].name, target); restripeErr != nil {
					return
				}
				if _, restripeErr = e.offload(p, as, &e.files[i]); restripeErr != nil {
					return
				}
			}
		})
		if err := clu.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if restripeErr != nil {
			t.Fatal(restripeErr)
		}
		shareLayouts("after a restripe")
		clu.Eng.Shutdown()
	}
}
