package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// busyLoop burns CPU on the calling goroutine under a name the profile
// decoder must find.
//
//go:noinline
func busyLoop(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseCPUProfileFindsBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyLoop(150 * time.Millisecond)
	pprof.StopCPUProfile()

	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.PeriodNanos != 10_000_000 {
		t.Errorf("period %d ns, want the profiler's 100 Hz", prof.PeriodNanos)
	}
	var total, inLoop int64
	for _, s := range prof.Samples {
		total += s.Count
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".busyLoop") {
				inLoop += s.Count
				break
			}
		}
	}
	if total == 0 || inLoop*2 < total {
		t.Fatalf("busyLoop on %d of %d samples, want most of them", inLoop, total)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	const p = internalPrefix
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", p + "grid.FloatsToBytesInto", p + "active.(*Service).exec"}, "grid"},
		{[]string{"runtime.chanrecv", p + "sim.(*Mailbox[go.shape.struct {}]).Get", "main.main"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.mallocgc", "main.prepareCells"}, layerOther},
		{[]string{p + "lint/analysis.Run"}, "lint"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	all := []span{
		{Name: "rep", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "build", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "run", Parent: 0, Start: 30 * ms, End: 90 * ms},
		{Name: "inner", Parent: 2, Start: 40 * ms, End: 50 * ms},
	}
	want := []time.Duration{20 * ms, 20 * ms, 50 * ms, 10 * ms}
	for i, got := range selfTimes(all) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", all[i].Name, got, want[i])
		}
	}
}

func TestSpansNestAndGroupByRepetition(t *testing.T) {
	sp := newSpans()
	sp.rep = 3
	if err := sp.do("outer", func() error {
		return sp.do("inner", func() error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if len(sp.all) != 2 || sp.all[1].Parent != 0 || sp.all[0].Parent != -1 {
		t.Fatalf("spans %+v: inner must be the child of outer", sp.all)
	}
	self := sp.selfByName(3)
	if total := sp.all[0].End - sp.all[0].Start; self["outer"]+self["inner"] != total {
		t.Errorf("self times %v do not add up to the root's %v", self, total)
	}
	if len(sp.selfByName(4)) != 0 {
		t.Error("spans leaked into another repetition")
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles([1..10], n=4) gives [2.75, 5.5, 8.25].
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Min != 1 || s.Max != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("summary %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5", got)
	}
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three samples: %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("no samples: %+v", s)
	}
}

func TestJudge(t *testing.T) {
	wall := func(v, q1, q3 float64) metricValue {
		return metricValue{Value: v, Clock: "wall", Samples: &summary{N: 5, Median: v, Q1: q1, Q3: q3}}
	}
	exact := func(v float64) metricValue { return metricValue{Value: v, Clock: "sim"} }
	for _, tc := range []struct {
		name   string
		a, b   metricValue
		better string
		bound  float64
		want   string
	}{
		{"wall within noise", wall(1, 0.98, 1.02), wall(1.03, 1.01, 1.05), "lower", 0.10, unchanged},
		{"wall slower than the bound", wall(1, 0.98, 1.02), wall(1.2, 1.18, 1.22), "lower", 0.10, regressed},
		{"wall faster within the bound", wall(1, 0.98, 1.02), wall(0.95, 0.93, 0.97), "lower", 0.10, unchanged},
		{"wall faster than the bound", wall(1, 0.98, 1.02), wall(0.8, 0.78, 0.82), "lower", 0.10, improved},
		{"wall spread wider than the bound", wall(1, 0.9, 1.1), wall(1.5, 1.4, 1.6), "lower", 0.10, unresolved},
		{"sim identical", exact(2), exact(2), "lower", 0.02, unchanged},
		{"sim any gain counts", exact(2), exact(1.999), "lower", 0.02, improved},
		{"sim worse within the bound", exact(2), exact(2.01), "lower", 0.02, unchanged},
		{"sim worse than the bound", exact(2), exact(2.1), "lower", 0.02, regressed},
		{"higher is better", exact(2), exact(1.5), "higher", 0.02, regressed},
	} {
		if got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestMiniWorkloads runs a miniature of each workload: it must verify,
// replay identically, and conserve bytes, so that tier-1 catches an API
// drift that would break the benchmark.
func TestMiniWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sp := newSpans()
			runRep, err := w.prepare(7, miniSizes(), sp)
			if err != nil {
				t.Fatal(err)
			}
			var identity string
			for id := 0; id < 2; id++ {
				rep := &repetition{id: id, sp: sp}
				sp.rep = id
				if err := runRep(rep); err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("%d of %d operations failed verification", rep.failed, rep.attempted)
				}
				if err := selfCheck(rep, &identity); err != nil {
					t.Fatal(err)
				}
				if rep.wall <= 0 || rep.simNanos <= 0 || rep.movedBytes <= 0 {
					t.Fatalf("repetition measured nothing: wall %v sim %d moved %d", rep.wall, rep.simNanos, rep.movedBytes)
				}
			}
		})
	}
}

func TestCatalogueNamesAreUniqueAndWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
		if len(name) == 0 || len(name) > 64 {
			t.Errorf("metric name %q has a bad length", name)
		}
		for i, r := range name {
			alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
			if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
				t.Errorf("metric name %q has a bad character %q", name, r)
			}
		}
	}
	for _, d := range endToEnd {
		check(d.Name)
	}
	layers := perLayer()
	for _, d := range layers {
		check(d.Name)
	}
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, the manifest takes at most 128", len(layers))
	}
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json, which the acceptance
// driver reads, in step with the catalogue the program reports from.
func TestManifestMatchesCatalogue(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory")
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(want)
	g, _ := json.Marshal(got)
	if !bytes.Equal(w, g) {
		t.Error("BENCHMARK.json differs from the catalogue: regenerate it with run.sh -manifest")
	}
}
