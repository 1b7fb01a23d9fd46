package experiments

import "testing"

// The scale workload is the identity probe for the engine: its outputs
// (event count, virtual time, traffic bytes, data checksums, kernel
// results) must equal the goldens recorded from the classic engine
// construction before it was deleted (scaleGoldens) — at small clusters
// for speed and at the paper-scale 640 nodes.

func mustScale(t *testing.T, opts ScaleOptions) ScaleStats {
	t.Helper()
	st, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustMatchGolden runs opts and compares against its recorded golden.
func mustMatchGolden(t *testing.T, opts ScaleOptions) ScaleStats {
	t.Helper()
	want, ok := ScaleGolden(opts)
	if !ok {
		t.Fatalf("no golden recorded for %+v", opts)
	}
	st := mustScale(t, opts)
	if !st.SameSimulation(want) || st.Ops != want.Ops {
		t.Fatalf("%+v diverged from the classic-engine golden:\n got    %+v\n golden %+v", opts, st, want)
	}
	return st
}

func TestScaleMatchesClassicGolden(t *testing.T) {
	for _, opts := range []ScaleOptions{
		{Nodes: 64, OpsPerClient: 32, Seed: 7},
		// The 640-node storm `dasbench -scale -smoke` used to check.
		{Nodes: 640, OpsPerClient: 32, Seed: 11},
	} {
		st := mustMatchGolden(t, opts)
		if st.Reads == 0 || st.Writes == 0 {
			t.Fatalf("degenerate workload: %d reads, %d writes", st.Reads, st.Writes)
		}
	}
}

func TestScaleRunToRunDeterminism(t *testing.T) {
	opts := ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 3}
	a := mustMatchGolden(t, opts)
	b := mustScale(t, opts)
	if !a.SameSimulation(b) {
		t.Fatalf("two identical runs diverged:\n a %+v\n b %+v", a, b)
	}
}

func TestScaleSeedChangesOutputs(t *testing.T) {
	a := mustScale(t, ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 1})
	b := mustScale(t, ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 2})
	if a.Checksum == b.Checksum {
		t.Fatal("different seeds produced the same checksum — the workload is not seed-driven")
	}
}

func TestScaleRejectsOddNodeCounts(t *testing.T) {
	if _, err := RunScale(ScaleOptions{Nodes: 25}); err == nil {
		t.Fatal("odd node count accepted")
	}
	if _, err := RunScale(ScaleOptions{Nodes: 0}); err == nil {
		t.Fatal("zero node count accepted")
	}
}

// TestScale640Determinism is the acceptance point: at 640 nodes, two runs
// are byte-identical to each other and to the classic-engine golden.
func TestScale640Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("640-node run skipped with -short")
	}
	opts := ScaleOptions{Nodes: 640, OpsPerClient: 16, Seed: 11}
	a := mustMatchGolden(t, opts)
	b := mustScale(t, opts)
	if !a.SameSimulation(b) {
		t.Fatalf("two 640-node runs diverged:\n a %+v\n b %+v", a, b)
	}
}
