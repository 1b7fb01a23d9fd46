package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
)

// shared is the one Quick configuration the package's tests run on, so a
// cell several experiments read is simulated once for all of them.
var shared = Quick()

func quick() Config { return shared }

// execute runs one experiment and fails the test on any error — a cell
// that does not verify, a replay that differs, a claim that does not hold.
func execute(t *testing.T, c Config, e Experiment) (*Result, []Record) {
	t.Helper()
	r, recs, err := c.Execute(e)
	if err != nil {
		t.Fatal(err)
	}
	return r, recs
}

// committedRecords reads the committed full-scale records, BENCH_sim.json.
func committedRecords(t *testing.T) []Record {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed []Record
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	return committed
}

// Committed records sortCommitted picks out by name.
const (
	// faultCell is the full-scale crash cell of the forced DAS offload:
	// server 1 lost for good, its strips spread over their live holders.
	faultCell = "flow-routing 24GB 24n grouped(r=2,halo=2) faults[crash@0s:s1] from half the healthy time | faults | DAS(forced)"
	// pushdownTwin is the healthy twin of the terrain pushdown crash cell.
	pushdownTwin = "grouped(r=2,halo=2) | DAS pushdown(forced)"
)

// committedCells are the committed full-scale records the oracles below
// hold to a bound of their own, each picked out by name.
type committedCells struct {
	// fault is the first step of faultCell.
	fault *StepRecord
	// pushdowns are the terrain pushdown records; crashed and healthy are
	// the first steps of the crash cell and of its healthy twin.
	pushdowns        []Record
	crashed, healthy *StepRecord
	tenants          []Record
}

// sortCommitted picks the committedCells out of the committed records,
// BENCH_sim.json, in one pass.
func sortCommitted(t *testing.T) committedCells {
	t.Helper()
	var c committedCells
	for _, rec := range committedRecords(t) {
		switch {
		case rec.Name == faultCell:
			c.fault = &rec.Steps[0]
		case strings.HasPrefix(rec.Name, PipelineDAG().Name+" ") && strings.Contains(rec.Name, "pushdown"):
			c.pushdowns = append(c.pushdowns, rec)
			if strings.Contains(rec.Name, "faults[crash") {
				c.crashed = &rec.Steps[0]
			} else if strings.HasSuffix(rec.Name, pushdownTwin) {
				c.healthy = &rec.Steps[0]
			}
		case strings.HasPrefix(rec.Name, "tenants("):
			c.tenants = append(c.tenants, rec)
		}
	}
	return c
}

// TestEveryCommittedStepWithinItsBound is the bound oracle over the
// committed full-scale records, BENCH_sim.json: every step that carries a
// bound_seconds (startup plus its busiest single resource) took at least
// it. Only a fleet's, a MapReduce job's and a per-pass DAG's steps may
// lack one; a step of any other record that loses its bound fails.
func TestEveryCommittedStepWithinItsBound(t *testing.T) {
	var n int
	for _, rec := range committedRecords(t) {
		label := rec.Name[strings.LastIndex(rec.Name, " ")+1:]
		unbounded := label == "fleet" || label == "mapreduce" || label == "per-pass"
		for i, step := range rec.Steps {
			if _, ok := step.Stats["bound_seconds"]; ok || !unbounded {
				checkBound(t, fmt.Sprintf("%s step %d", rec.Name, i), step)
				n++
			}
		}
	}
	t.Logf("%d committed steps checked against their bound", n)
}

// checkBound fails t unless step carries a bound and took at least it.
func checkBound(t *testing.T, name string, step StepRecord) {
	t.Helper()
	switch bound := step.Stats["bound_seconds"]; {
	case bound <= 0:
		t.Errorf("%s: carries no bound", name)
	case step.SimSeconds < bound:
		t.Errorf("%s: sim %.4fs not at or above its bound %.4fs", name, step.SimSeconds, bound)
	}
}

// TestFaultRecordsWithinTheirBound holds the committed full-scale crash
// cell of the forced DAS offload, faultCell, to at most twice its bound
// (TestEveryCommittedStepWithinItsBound holds it to at least the bound)
// (1.42×; 1.62× when its strips all went to the first live holder). It
// read 7.16× while a call from the crashed server's own processes waited
// out the whole request timeout.
func TestFaultRecordsWithinTheirBound(t *testing.T) {
	step := sortCommitted(t).fault
	if step == nil {
		t.Fatalf("no committed record %q", faultCell)
	}
	if v, bound := step.SimSeconds, step.Stats["bound_seconds"]; bound <= 0 || v > 2*bound {
		t.Errorf("%s: sim %.4fs above 2 × its bound %.4fs", faultCell, v, bound)
	}
}

// pricedFactor bounds how far a committed pushdown record's simulated
// seconds may sit from what the prediction core priced its fusion depth
// at, either way. The price is of a healthy cluster, so the crash cell,
// priced as its healthy twin, reads highest (1.39×); the healthy cells
// read 1.01–1.16×.
const pricedFactor = 1.5

// TestPushdownRecordsWithinAFactorOfTheirPrice holds the depth price to
// the committed full-scale records: it runs nothing. Every pushdown
// record names the depth it ran and that depth's predicted seconds, and
// its simulated seconds lie within pricedFactor of them.
func TestPushdownRecordsWithinAFactorOfTheirPrice(t *testing.T) {
	pushdowns := sortCommitted(t).pushdowns
	if len(pushdowns) != 4 {
		t.Fatalf("%d committed pushdown records, want 4", len(pushdowns))
	}
	for _, rec := range pushdowns {
		step := rec.Steps[0]
		depth, predicted := step.Stats.Int("fusion_depth"), step.Stats["predicted_seconds"]
		if depth < 1 || depth > step.Stats.Int("stages") || predicted <= 0 {
			t.Errorf("%s: fusion depth %d, predicted %.4fs", rec.Name, depth, predicted)
			continue
		}
		if ratio := step.SimSeconds / predicted; ratio > pricedFactor || ratio < 1/pricedFactor {
			t.Errorf("%s: sim %.4fs is %.3f× its predicted %.4fs, outside a factor of %.1f",
				rec.Name, step.SimSeconds, ratio, predicted, pricedFactor)
		}
	}
}

// TestPushdownRecordsWithinTheirBound holds the committed full-scale
// terrain pushdown records — four of them, each at or above its bound
// (TestEveryCommittedStepWithinItsBound) — and the crash cell to what a
// crash costs: the crashed server's acked runs are not redone, each
// caught-up strip evaluates its lineage once, the catch-up wave spreads
// over every live holder, and no call waits on a crashed caller, so the
// crash + restart run takes at most 1.25× its healthy twin (1.23×; 1.32×
// when the crashed server's whole request was redone, 1.56× before the
// chain fused whole, 1.80× when the wave queued on the first live holder
// and a dead caller's call waited out its timeout, 2.28× when a catch-up
// evaluated each target's lineage on its own).
func TestPushdownRecordsWithinTheirBound(t *testing.T) {
	c := sortCommitted(t)
	if len(c.pushdowns) != 4 || c.crashed == nil || c.healthy == nil {
		t.Fatalf("%d committed pushdown records (crash cell %v, its healthy twin %v), want 4 with both",
			len(c.pushdowns), c.crashed != nil, c.healthy != nil)
	}
	if c.crashed.Stats.Int("catch_ups") == 0 {
		t.Error("the crash cell caught no strip up")
	}
	if ratio := c.crashed.SimSeconds / c.healthy.SimSeconds; ratio > 1.25 {
		t.Errorf("the crash cell took %.4fs, %.3f× its healthy twin's %.4fs; want at most 1.25×",
			c.crashed.SimSeconds, ratio, c.healthy.SimSeconds)
	}
}

// TestTenantsRecordsWithinTheirBound holds the committed full-scale
// tenants records — one a variant, each at or above its bound
// (TestEveryCommittedStepWithinItsBound) — to a disk skew of at least 1.
func TestTenantsRecordsWithinTheirBound(t *testing.T) {
	tenants := sortCommitted(t).tenants
	for _, rec := range tenants {
		checkDiskSkew(t, rec)
	}
	if len(tenants) != len(tenantsVariants) {
		t.Errorf("%d committed tenants records, want %d", len(tenants), len(tenantsVariants))
	}
}

func TestTableIListsThreeKernels(t *testing.T) {
	tbl := TableI()
	for _, name := range []string{"flow-routing", "flow-accumulation", "gaussian-filter"} {
		if !strings.Contains(tbl, name) {
			t.Errorf("Table I missing %s:\n%s", name, tbl)
		}
	}
}

// scaled is a figure's result at one scale its claims are checked at.
type scaled struct {
	name string
	c    Config
	r    *Result
	// full marks the committed full-scale records, held to the paper's own
	// thresholds.
	full bool
}

// atBothScales gives a figure's result simulated at Quick(), and the one
// its Claims build at Default() from the committed full-scale records,
// BENCH_sim.json, each cell looked up by its scenario's name: nothing is
// simulated at full scale.
func atBothScales(t *testing.T, e Experiment) []scaled {
	t.Helper()
	q, _ := execute(t, quick(), e)
	c := Default()
	byName := make(map[string]Record)
	for _, rec := range committedRecords(t) {
		byName[rec.Name] = rec
	}
	var recs []Record
	for _, cell := range e.Scenarios(c) {
		rec, ok := byName[cell.Name()]
		if !ok {
			t.Fatalf("%s: no committed record %q", e.ID, cell.Name())
		}
		recs = append(recs, rec)
	}
	full, err := e.Claims(c, recs)
	if err != nil {
		t.Fatal(err)
	}
	return []scaled{{"quick", quick(), q, false}, {"full scale", c, full, true}}
}

func TestFig10NASSlowerThanTS(t *testing.T) {
	for _, s := range atBothScales(t, fig10) {
		for _, k := range paperKernels {
			for _, size := range s.c.SizesGB {
				nas, ok1 := s.r.Value(k.label+"_NAS", float64(size))
				ts, ok2 := s.r.Value(k.label+"_TS", float64(size))
				if !ok1 || !ok2 {
					t.Fatalf("%s: missing cells for %s at %d GB", s.name, k.label, size)
				}
				if nas <= ts {
					t.Errorf("%s, %s %dGB: NAS %.4fs not slower than TS %.4fs (the paper's Fig. 10 effect)",
						s.name, k.label, size, nas, ts)
				}
			}
		}
	}
}

func TestFig11DASWinsWithPaperMargins(t *testing.T) {
	for _, s := range atBothScales(t, fig11) {
		// The paper reports >30% over TS and >60% over NAS at full scale;
		// at Quick() scale fixed costs compress the margins, so there the
		// thresholds hold at half strength.
		overTS, overNAS := 0.30, 0.60
		if !s.full {
			overTS, overNAS = overTS/2, overNAS/2
		}
		for ki, k := range paperKernels {
			das, _ := s.r.Value("DAS", float64(ki))
			ts, _ := s.r.Value("TS", float64(ki))
			nas, _ := s.r.Value("NAS", float64(ki))
			if das <= 0 || ts <= 0 || nas <= 0 {
				t.Fatalf("%s, %s: missing data", s.name, k.label)
			}
			if !(das < ts && ts < nas) {
				t.Errorf("%s, %s: want DAS < TS < NAS, got %.4f / %.4f / %.4f", s.name, k.label, das, ts, nas)
			}
			if 1-das/ts <= overTS {
				t.Errorf("%s, %s: DAS only %.1f%% over TS, want more than %.0f%%", s.name, k.label, 100*(1-das/ts), 100*overTS)
			}
			if 1-das/nas <= overNAS {
				t.Errorf("%s, %s: DAS only %.1f%% over NAS, want more than %.0f%%", s.name, k.label, 100*(1-das/nas), 100*overNAS)
			}
		}
	}
}

func TestFig12GrowthOrdering(t *testing.T) {
	for _, s := range atBothScales(t, fig12) {
		lo, hi := float64(s.c.SizesGB[0]), float64(s.c.SizesGB[len(s.c.SizesGB)-1])
		for _, k := range paperKernels {
			// Execution time grows with data for every scheme...
			growth := func(scheme core.Scheme) float64 {
				a, _ := s.r.Value(k.label+"_"+scheme.String(), lo)
				b, _ := s.r.Value(k.label+"_"+scheme.String(), hi)
				return b - a
			}
			for _, scheme := range []core.Scheme{core.NAS, core.DAS, core.TS} {
				if g := growth(scheme); g <= 0 {
					t.Errorf("%s, %s_%v: time did not grow with data (%+.4f)", s.name, k.label, scheme, g)
				}
			}
			// ...and DAS has the smallest absolute growth.
			if !(growth(core.DAS) < growth(core.TS) && growth(core.DAS) < growth(core.NAS)) {
				t.Errorf("%s, %s: DAS growth %.4f not smallest (TS %.4f, NAS %.4f)",
					s.name, k.label, growth(core.DAS), growth(core.TS), growth(core.NAS))
			}
		}
	}
}

func TestFig13BothSchemesScaleWithNodes(t *testing.T) {
	for _, s := range atBothScales(t, fig13) {
		for _, k := range paperKernels {
			for _, scheme := range []core.Scheme{core.DAS, core.TS} {
				series := k.label + "_" + scheme.String()
				for i := 1; i < len(s.c.NodeSweep); i++ {
					few, many := float64(s.c.NodeSweep[i-1]), float64(s.c.NodeSweep[i])
					a, _ := s.r.Value(series, few)
					b, _ := s.r.Value(series, many)
					if b >= a {
						t.Errorf("%s, %s: adding nodes did not help (%.4f @ %v → %.4f @ %v)", s.name, series, a, few, b, many)
					}
				}
			}
		}
	}
}

func TestFig14BandwidthOrdering(t *testing.T) {
	for _, s := range atBothScales(t, fig14) {
		for _, size := range s.c.SizesGB {
			ts, _ := s.r.Value("TS", float64(size))
			das, _ := s.r.Value("DAS", float64(size))
			nas, _ := s.r.Value("NAS", float64(size))
			if ts != 1 {
				t.Errorf("%s, %dGB: TS normalization %.4f != 1", s.name, size, ts)
			}
			if !(das > 1 && nas < 1) {
				t.Errorf("%s, %dGB: want DAS > 1 > NAS, got DAS=%.4f NAS=%.4f", s.name, size, das, nas)
			}
		}
	}
}

func TestResultTableAndCSV(t *testing.T) {
	r := &Result{ID: "figX", Title: "demo", XLabel: "x", YLabel: "y"}
	r.Add("a", 1, 0.5)
	r.Add("b", 1, 0.25)
	r.Add("a", 2, 1.5)
	r.Notes = append(r.Notes, "hello")
	tbl := r.Table()
	for _, want := range []string{"FIGX", "demo", "a", "b", "0.5000", "note: hello"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// Missing cell renders as "-".
	if !strings.Contains(tbl, "-") {
		t.Errorf("missing cell not rendered:\n%s", tbl)
	}
}

func TestRunOneRejectsOddNodes(t *testing.T) {
	c := quick()
	if _, err := c.Run(c.Cell(core.TS, "flow-routing", 2, 7)); err == nil {
		t.Error("odd node count accepted")
	}
}

func TestDatasetGeometryValidation(t *testing.T) {
	c := quick()
	c.Width = 5000 // does not divide any power-of-two size
	if _, err := c.Run(c.Cell(core.TS, "flow-routing", 2, c.Nodes)); err == nil {
		t.Error("untileable width accepted")
	}
}
