package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/kernels"
)

func TestCheckExclusiveRejectsDemoWithOtherReports(t *testing.T) {
	cases := []struct {
		op, faults                                 string
		cache, restripe, control, tenants, kernels bool
		streams, rounds                            bool // -streams, -rounds given
		wantErr                                    string
	}{
		{"", "", false, false, false, false, false, false, false, ""},
		{"flow-routing", "", false, false, false, false, false, false, false, ""},
		{"flow-routing", "crash@10ms:s1", false, false, false, false, false, false, false, ""}, // -op and -faults compose
		{"", "", true, false, false, false, false, false, false, ""},
		{"flow-routing", "", true, false, false, false, false, false, false, "-op"},
		{"", "crash@10ms:s1", true, false, false, false, false, false, false, "-faults"},
		{"flow-routing", "crash@10ms:s1", true, false, false, false, false, false, false, "-op or -faults"},
		{"", "", false, true, false, false, false, false, false, ""},
		{"flow-routing", "", false, true, false, false, false, false, false, "-op"},
		{"", "crash@10ms:s1", false, true, false, false, false, false, false, "-faults"},
		{"flow-routing", "crash@10ms:s1", false, true, false, false, false, false, false, "-op or -faults"},
		{"", "", true, true, false, false, false, false, false, "-cache"},
		{"flow-routing", "crash@10ms:s1", true, true, false, false, false, false, false, "-cache"},
		{"", "", false, false, true, false, false, false, false, ""},
		{"flow-routing", "", false, false, true, false, false, false, false, "-op"},
		{"", "crash@10ms:s1", false, false, true, false, false, false, false, "-faults"},
		{"", "", true, false, true, false, false, false, false, "-cache"},
		{"", "", false, true, true, false, false, false, false, "-restripe"},
		{"", "", false, false, false, true, false, false, false, ""},
		{"flow-routing", "", false, false, false, true, false, false, false, "-op"},
		{"", "crash@10ms:s1", false, false, false, true, false, false, false, "-faults"},
		{"", "", true, false, false, true, false, false, false, "-cache"},
		{"", "", false, false, true, true, false, false, false, "-control"},
		{"", "", false, false, false, false, true, false, false, ""},
		{"flow-routing", "", false, false, false, false, true, false, false, "-op"},
		{"", "crash@10ms:s1", false, false, false, false, true, false, false, "-faults"},
		{"", "", false, false, false, true, true, false, false, "-tenants"},
		{"", "", true, false, false, false, true, false, false, "-cache"},
		// A modifier without the report that reads it is an error, not a
		// silently ignored flag.
		{"", "", true, false, false, false, false, false, true, ""},
		{"", "", false, true, false, false, false, false, true, ""},
		{"", "", false, false, true, false, false, false, true, ""},
		{"", "", false, false, false, true, false, true, false, ""},
		{"flow-routing", "", false, false, false, false, false, true, false, "-streams applies only to -tenants"},
		{"", "", false, false, false, false, false, false, true, "-rounds applies only to"},
		{"", "", true, false, false, false, false, true, false, "-streams applies only to -tenants"},
		{"", "", false, false, false, true, false, false, true, "-rounds applies only to"},
		{"", "", false, false, false, false, true, false, true, "-rounds applies only to"},
	}
	for _, c := range cases {
		err := checkExclusive(c.op, c.faults, c.cache, c.restripe, c.control, c.tenants, c.kernels, c.streams, c.rounds)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("checkExclusive(%+v) = %v, want nil", c, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkExclusive(%+v) accepted, want error naming %s", c, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("checkExclusive(%+v) = %q, want mention of %s", c, err, c.wantErr)
		}
	}
}

// TestOpWithFaultsExplainsTheVeto: -op with a -faults plan that takes down
// both holders of a group's boundary strips (primary and the neighbor
// replicating them) must print the unservable term and reject,
// through the same rendering the healthy analysis prints.
func TestOpWithFaultsExplainsTheVeto(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 4, 8, 4, 1, 4096, "flow-routing", 256, 1<<20, "crash@10ms:s1,crash@20ms:s2"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	replicated := got[strings.LastIndex(got, "offload="):]
	for _, want := range []string{
		"offload=false under grouped-replicated(D=4,r=4,halo=1)",
		"unservable strips", "with no live copy",
		"verdict: rejected:", "strips have no live copy",
	} {
		if !strings.Contains(replicated, want) {
			t.Errorf("replicated layout's decision missing %q:\n%s", want, replicated)
		}
	}
	out.Reset()
	if err := run(&out, 4, 8, 4, 1, 4096, "flow-routing", 256, 1<<20, ""); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Contains(got, "unservable") || !strings.Contains(got, "offload=true under grouped-replicated(D=4,r=4,halo=1)") {
		t.Errorf("healthy analysis:\n%s", got)
	}
}

// TestKernelsReportListsEveryOperator checks the registry listing names
// every default kernel, combiner, and reducer with its dependence
// offsets, weight, and (for reducers) partial length.
func TestKernelsReportListsEveryOperator(t *testing.T) {
	var out bytes.Buffer
	if err := kernelsReport(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	reg := kernels.Default()
	for _, name := range reg.Names() {
		if !strings.Contains(got, name) {
			t.Errorf("listing missing kernel %q:\n%s", name, got)
		}
	}
	for _, info := range kernels.DefaultCombiners().List() {
		if !strings.Contains(got, info.Name) {
			t.Errorf("listing missing combiner %q:\n%s", info.Name, got)
		}
	}
	for _, info := range kernels.DefaultReducers().List() {
		if !strings.Contains(got, info.Name) {
			t.Errorf("listing missing reducer %q:\n%s", info.Name, got)
		}
		if info.PartialLen > 0 && !strings.Contains(got, fmt.Sprintf("%d", info.PartialLen)) {
			t.Errorf("listing missing partial length %d for %q", info.PartialLen, info.Name)
		}
	}
	for _, want := range []string{"kernel", "combine", "reduce", "f/el", "dependence offsets"} {
		if !strings.Contains(got, want) {
			t.Errorf("listing missing %q:\n%s", want, got)
		}
	}
	// A 3×3 stencil's reach is one row each way: the symbolic offsets
	// ±imgWidth±1 must appear for the stencil kernels.
	for _, want := range []string{"imgWidth+1", "-imgWidth-1"} {
		if !strings.Contains(got, want) {
			t.Errorf("listing missing symbolic offset %q:\n%s", want, got)
		}
	}
}

func TestRestripeReportRunsAndPrintsMigration(t *testing.T) {
	var out bytes.Buffer
	if err := restripeReport(&out, 4, 2); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"background migration converged",
		"migrations:",
		"round-robin", "grouped-replicated", "done",
		"counters:", "restripe.strips_moved=",
		"events:", "plan", "complete",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Round 1 pays dependent fetches; round 2, after the drain, must not.
	if !strings.Contains(got, "round 2: 0B dependent-halo bytes fetched") {
		t.Errorf("post-migration round still fetched dependent bytes:\n%s", got)
	}
}

func TestRestripeReportRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := restripeReport(&out, 0, 2); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestCacheReportRunsAndPrintsStats(t *testing.T) {
	var out bytes.Buffer
	if err := cacheReport(&out, 4, 2); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"LRU eviction", "server 0:", "server 3:", "cluster:", "cache.hits="} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestCacheReportRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := cacheReport(&out, 0, 1); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestControlReportRunsAndPrintsSketches(t *testing.T) {
	var out bytes.Buffer
	if err := controlReport(&out, 4, 3); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"unified p99 controller demo",
		"thresholds: high 3.000ms / low 1.000ms at p99",
		"fetch samples",
		"cluster fetch p99:",
		"samples:",
		"migration-excluded",
		"control:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("control report missing %q:\n%s", want, got)
		}
	}
}

func TestControlReportRejectsBadGeometry(t *testing.T) {
	var out bytes.Buffer
	if err := controlReport(&out, 0, 1); err == nil {
		t.Error("accepted zero servers")
	}
}

func TestTenantsReportRunsAndPrintsFairness(t *testing.T) {
	var out bytes.Buffer
	if err := tenantsReport(&out, 4, 32); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"multi-tenant demo: 32 streams",
		"fairness:",
		"spread",
		"per-server queue depth",
		"server  0:",
		"hottest files",
		"tfile-",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tenants report missing %q:\n%s", want, got)
		}
	}
}

func TestTenantsReportRejectsBadGeometry(t *testing.T) {
	var out bytes.Buffer
	if err := tenantsReport(&out, 0, 8); err == nil {
		t.Error("accepted zero servers")
	}
}
