package fault

import (
	"testing"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed:7,crash@50ms:s2,restart@120ms:s2,slowdisk@0s:s1*0.25,slownic@1s:s0*0.5,loss@0s:0.01/2ms,loss@2s:0"
	plan, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 {
		t.Fatalf("seed = %d, want 7", plan.Seed)
	}
	if len(plan.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(plan.Events))
	}
	want := []Event{
		{At: 50 * sim.Millisecond, Kind: Crash, Server: 2},
		{At: 120 * sim.Millisecond, Kind: Restart, Server: 2},
		{At: 0, Kind: SlowDisk, Server: 1, Factor: 0.25},
		{At: sim.Second, Kind: SlowNIC, Server: 0, Factor: 0.5},
		{At: 0, Kind: Loss, Server: -1, Frac: 0.01, Delay: 2 * sim.Millisecond},
		{At: 2 * sim.Second, Kind: Loss, Server: -1},
	}
	for i, w := range want {
		if plan.Events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, plan.Events[i], w)
		}
	}
	if err := plan.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// String must parse back to the same plan.
	again, err := ParsePlan(plan.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", plan.String(), err)
	}
	if again.Seed != plan.Seed || len(again.Events) != len(plan.Events) {
		t.Fatalf("round trip changed the plan: %q", plan.String())
	}
	for i := range plan.Events {
		if again.Events[i] != plan.Events[i] {
			t.Errorf("round-trip event %d = %+v, want %+v", i, again.Events[i], plan.Events[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"explode@1s:s0",  // unknown kind
		"crash@1s",       // missing arg
		"crash@oops:s0",  // bad duration
		"crash@1s:2",     // server without s prefix
		"slowdisk@1s:s0", // missing factor
		"loss@1s:x",      // bad fraction
		"seed:abc",       // bad seed
		"crash:s0",       // missing @duration
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed spec", spec)
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, spec := range []string{
		"crash@1s:s9",        // server out of range for 4 servers
		"slowdisk@1s:s0*1.5", // factor > 1
		"slowdisk@1s:s0*0",   // factor 0 — parses, Validate rejects
		"loss@1s:1.5",        // fraction > 1
		"crash@-1s:s0",       // negative time
	} {
		plan, err := ParsePlan(spec)
		if err != nil {
			continue // some of these fail at parse time, which is fine too
		}
		if err := plan.Validate(4); err == nil {
			t.Errorf("Validate accepted %q", spec)
		}
	}
}

func TestStateCrashRestartIncarnation(t *testing.T) {
	s := NewState(1, metrics.NewRegistry())
	if s.Active() {
		t.Fatal("fresh state reports Active")
	}
	if s.Down(3) {
		t.Fatal("fresh state reports a node down")
	}
	inc0 := s.Incarnation(3)
	s.SetDown(3, true)
	if !s.Active() || !s.Down(3) {
		t.Fatal("SetDown(true) not observed")
	}
	inc1 := s.Incarnation(3)
	if inc1 == inc0 {
		t.Fatal("crash did not bump incarnation")
	}
	s.SetDown(3, true) // idempotent: same state, same incarnation
	if s.Incarnation(3) != inc1 {
		t.Fatal("repeated crash bumped incarnation")
	}
	s.SetDown(3, false)
	if s.Down(3) {
		t.Fatal("restart not observed")
	}
	if s.Incarnation(3) == inc1 {
		t.Fatal("restart did not bump incarnation")
	}
	if !s.Active() {
		t.Fatal("Active must stay sticky after recovery")
	}
}

func TestStateLossDeterminism(t *testing.T) {
	draw := func(seed int64) []bool {
		s := NewState(seed, metrics.NewRegistry())
		s.SetLoss(0.5, 0)
		out := make([]bool, 64)
		for i := range out {
			out[i], _ = s.DropMessage(0, 1)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestStateNICFactorAndLossDelay(t *testing.T) {
	s := NewState(1, metrics.NewRegistry())
	if f := s.NICFactor(0); f != 1 {
		t.Fatalf("healthy NIC factor = %v, want 1", f)
	}
	s.SetNICFactor(0, 0.25)
	if f := s.NICFactor(0); f != 0.25 {
		t.Fatalf("NIC factor = %v, want 0.25", f)
	}
	s.SetNICFactor(0, 1)
	if f := s.NICFactor(0); f != 1 {
		t.Fatalf("restored NIC factor = %v, want 1", f)
	}
	s.SetLoss(1, 3*sim.Millisecond)
	drop, delay := s.DropMessage(0, 1)
	if drop || delay != 3*sim.Millisecond {
		t.Fatalf("loss with delay: got drop=%v delay=%v, want delayed delivery", drop, delay)
	}
	s.SetLoss(1, 0)
	drop, _ = s.DropMessage(0, 1)
	if !drop {
		t.Fatal("loss fraction 1 did not drop")
	}
	s.SetLoss(0, 0)
	if drop, _ := s.DropMessage(0, 1); drop {
		t.Fatal("cleared loss still dropping")
	}
}
