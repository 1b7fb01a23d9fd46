package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
)

// Scenario is one cell of the evaluation, written down as data: a platform,
// an input and how it is placed, the adaptive subsystems deployed over it,
// a fault plan, and the steps to run. Every figure, experiment, ablation
// and demo is a list of these handed to Config.Run; two scenarios with
// equal fields are the same cell and run once per Config.
type Scenario struct {
	// Platform. Nodes is the total node count, half compute and half
	// storage, or — Collocated — every node both. ComputeNsPerElem
	// overrides the kernel cost of cluster.Default when non-zero.
	Nodes            int
	Collocated       bool
	ComputeNsPerElem float64

	// Input: a raster of SizeGB paper-gigabytes, Width elements wide, in
	// strips of StripSize bytes, generated from Seed. Op names the kernel
	// the Kernel, Fleet and MapReduce steps run; Scatter, when named, is
	// registered first (the hostile pattern of the predictor ablation);
	// DAG is what DAGRun steps run. Image selects the speckled-image
	// generator the filters are evaluated on instead of terrain (see
	// imageFor). Copies ingests the raster that many times for Fleet steps.
	// Tenants replaces all of it: the tenant engine creates its own files.
	SizeGB    int
	Width     int
	StripSize int64
	Seed      uint64
	Op        string
	Scatter   kernels.ScatterKernel
	DAG       kernels.DAG
	Image     bool
	Copies    int
	Tenants   *tenants.Config

	Place Placement

	// Adaptive subsystems, each deployed when its config is present.
	Cache    *cache.Config
	Restripe *restripe.Config
	Control  *control.Config

	// Faults is scheduled by the InstallFaults step, its times counted from
	// that moment — or, FaultsFromHalfHealthy, from half the first step's
	// time in the same scenario run without faults.
	Faults                fault.Plan
	FaultsFromHalfHealthy bool

	Steps []Step
	// VerifyLast reads every output back after the last step instead of
	// after the step that wrote it, for scenarios where a read-back in
	// between would disturb what the next step meets.
	VerifyLast bool
}

// Placement says how the input is laid out when it is written.
type Placement struct {
	Kind PlacementKind
	// R and Halo parameterize Grouped: strips per group and boundary
	// strips replicated per side.
	R, Halo int
}

// PlacementKind selects a layout policy.
type PlacementKind int

const (
	// RoundRobin is the PFS default, what TS and NAS run over.
	RoundRobin PlacementKind = iota
	// Planned asks the DAS planner for the operator's improved layout.
	Planned
	// Grouped is an explicit grouped-replicated layout.
	Grouped
)

func (p Placement) String() string {
	switch p.Kind {
	case Planned:
		return "planned"
	case Grouped:
		return fmt.Sprintf("grouped(r=%d,halo=%d)", p.R, p.Halo)
	}
	return "rr"
}

// StepKind selects what a step does.
type StepKind int

const (
	// Kernel executes the scenario's operator once.
	Kernel StepKind = iota
	// Fleet executes it over every input copy concurrently.
	Fleet
	// DAGRun executes the scenario's operator DAG.
	DAGRun
	// MapReduce runs the Hadoop-style comparator job.
	MapReduce
	// TenantStreams sets the tenant engine up and replays its streams.
	TenantStreams
	// InstallFaults schedules the scenario's fault plan; it yields no
	// step record.
	InstallFaults
)

// Step is one action against the deployed platform.
type Step struct {
	Kind   StepKind
	Scheme core.Scheme
	// Input names the file a Kernel step reads when it is not the ingested
	// raster — an earlier step's output: "output.<i>" for the scenario's
	// i-th recorded step ("output" when it has only one).
	Input string
	// FetchMode is the NAS dependent-data transport.
	FetchMode active.FetchMode
	// Reconfigure lets DAS migrate the input first; Force skips the
	// accept/reject decision; PerPass runs a DAG one kernel per pass.
	Reconfigure, Force, PerPass bool
	// Drain lets a background migration converge once the step is done
	// (and verified); one that does not is an error.
	Drain bool
}

func (st Step) String() string {
	var flags []string
	add := func(on bool, s string) {
		if on {
			flags = append(flags, s)
		}
	}
	add(st.FetchMode != active.FetchWholeStrips, st.FetchMode.String())
	add(st.Reconfigure, "reconfigure")
	add(st.Force, "forced")
	add(st.Input != "", "on "+st.Input)
	name := st.Scheme.String()
	switch st.Kind {
	case Fleet:
		name += " fleet"
	case DAGRun:
		if name += " pushdown"; st.PerPass {
			name = st.Scheme.String() + " per-pass"
		}
	case MapReduce:
		name = "mapreduce"
	case TenantStreams:
		name = "streams"
	case InstallFaults:
		name = "faults"
	}
	if len(flags) > 0 {
		name += "(" + strings.Join(flags, ",") + ")"
	}
	if st.Drain {
		name += "+drain"
	}
	return name
}

// ParseScheme resolves a scheme by the paper's abbreviation, in any case.
func ParseScheme(name string) (core.Scheme, error) {
	for _, scheme := range []core.Scheme{core.TS, core.NAS, core.DAS} {
		if strings.EqualFold(name, scheme.String()) {
			return scheme, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (TS, NAS or DAS)", name)
}

// imageFor reports whether an operator is evaluated on imagery (the
// filters) instead of terrain (the flow kernels).
func imageFor(op string) bool { return op == "gaussian-filter" || op == "median-filter" }

// Rounds returns n copies of a step.
func Rounds(n int, st Step) []Step {
	out := make([]Step, n)
	for i := range out {
		out[i] = st
	}
	return out
}

// Name renders the scenario's fields as the one-line description its
// record carries: workload, size, platform, placement, what departs from
// the paper's geometry, the subsystems, the fault plan and the steps.
// Distinct cells of the evaluation have distinct names.
func (s Scenario) Name() string {
	var b strings.Builder
	switch {
	case s.Tenants != nil:
		fmt.Fprintf(&b, "tenants(%dx%d ops, %d files, queue %d)",
			s.Tenants.Tenants, s.Tenants.OpsPerTenant, s.Tenants.Files, s.Tenants.MaxQueueDepth)
	case s.DAG.Name != "":
		b.WriteString(s.DAG.Name)
	default:
		b.WriteString(s.Op)
	}
	if s.SizeGB > 0 {
		fmt.Fprintf(&b, " %dGB", s.SizeGB)
	}
	fmt.Fprintf(&b, " %dn", s.Nodes)
	part := func(on bool, format string, args ...any) {
		if on {
			fmt.Fprintf(&b, " "+format, args...)
		}
	}
	part(s.Collocated, "collocated")
	part(s.Tenants == nil || s.Place.Kind != RoundRobin, "%v", s.Place)
	part(s.ComputeNsPerElem != 0, "%gns/elem", s.ComputeNsPerElem)
	part(s.Width != 0 && s.Width != 8192, "width=%d", s.Width)
	part(s.StripSize != 0 && s.StripSize != pfs.DefaultStripSize, "strip=%dK", s.StripSize>>10)
	part(s.Seed != 0 && s.Seed != 42, "seed=%d", s.Seed)
	part(s.Tenants == nil && s.Image != (s.DAG.Name == "" && imageFor(s.Op)), "image=%v", s.Image)
	part(s.Copies > 1, "x%d copies", s.Copies)
	for _, cfg := range []any{s.Cache, s.Restripe, s.Control} {
		if v := reflect.ValueOf(cfg); !v.IsNil() {
			fmt.Fprintf(&b, " +%s", nonZeroFields(v.Elem()))
		}
	}
	if len(s.Faults.Events) > 0 {
		part(true, "faults[%v]", s.Faults)
		part(s.FaultsFromHalfHealthy, "from half the healthy time")
	}
	for i := 0; i < len(s.Steps); {
		n := 1
		for i+n < len(s.Steps) && s.Steps[i+n] == s.Steps[i] {
			n++
		}
		fmt.Fprintf(&b, " | %v", s.Steps[i])
		part(n > 1, "x%d", n)
		i += n
	}
	part(s.VerifyLast, "| verify last")
	return b.String()
}

// nonZeroFields renders a config struct as "pkg.Type{Field=value,…}",
// leaving out the fields left at their defaults.
func nonZeroFields(v reflect.Value) string {
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			parts = append(parts, fmt.Sprintf("%s=%v", v.Type().Field(i).Name, f.Interface()))
		}
	}
	return strings.TrimSuffix(v.Type().String(), ".Config") + "{" + strings.Join(parts, ",") + "}"
}

// key identifies the cell: every field, so two scenarios share a key only
// if they are the same run.
func (s Scenario) key() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Scenario holds plain data only; a field that cannot be encoded
		// is a bug in this package.
		panic(fmt.Sprintf("experiments: scenario key: %v", err))
	}
	return string(data)
}

// healthy returns the scenario with its fault plan and the steps that
// install it removed.
func (s Scenario) healthy() Scenario {
	s.Faults, s.FaultsFromHalfHealthy = fault.Plan{}, false
	var steps []Step
	for _, st := range s.Steps {
		if st.Kind != InstallFaults {
			steps = append(steps, st)
		}
	}
	s.Steps = steps
	return s
}

// Counters is a name→value snapshot; it encodes as a JSON object with its
// names sorted. A name the snapshot does not carry reads as 0: the
// subsystem that counts it was not deployed.
type Counters map[string]float64

// Int reads a counter that counts.
func (cs Counters) Int(name string) int64 { return int64(cs[name]) }

// StepRecord is what one executed step measured, on the simulated clock.
type StepRecord struct {
	// Output names the file the step wrote (the first of a fleet's).
	Output     string  `json:"output,omitempty"`
	SimSeconds float64 `json:"sim_seconds"`
	// Traffic is the bytes the step moved, by class.
	Traffic Counters `json:"traffic"`
	// Stats are the step's execution statistics: dependent fetches and
	// cache hits for a kernel, pushdown accounting for a DAG, job times
	// for a fleet, and — under the controller — the round's fetch tail
	// and pin count.
	Stats Counters `json:"stats,omitempty"`
	// Reduce is a DAG's terminal aggregate.
	Reduce    []float64 `json:"reduce,omitempty"`
	Offloaded bool      `json:"offloaded"`
	// Reason is the prediction core's verdict, when it was asked.
	Reason         string `json:"reason,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Verified: the output equals the sequential reference bit for bit
	// (for tenant streams: every attempted operation completed or was shed).
	Verified bool `json:"verified"`
}

// SimTime converts recorded seconds back to the simulated clock's own
// scale, exactly: records carry seconds, the clock counts nanoseconds.
func SimTime(seconds float64) sim.Time { return sim.Time(math.Round(seconds * float64(sim.Second))) }

// SimTime is SimSeconds on the simulated clock's own scale.
func (sr StepRecord) SimTime() sim.Time { return SimTime(sr.SimSeconds) }

// Record is the outcome of one scenario: one StepRecord per executed step
// (InstallFaults yields none) and the platform's counters once the last
// step is done and verified.
type Record struct {
	Name     string       `json:"name"`
	Steps    []StepRecord `json:"steps"`
	Counters Counters     `json:"counters"`
	// Layout is the input's layout at the end — where a migration left it.
	Layout string `json:"layout,omitempty"`
}

// Seconds is the first step's simulated time: the value a figure plots.
func (r Record) Seconds() float64 { return r.Steps[0].SimSeconds }
