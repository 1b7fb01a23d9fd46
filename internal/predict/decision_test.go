package predict

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

func TestDecideAcceptsLocalLayout(t *testing.T) {
	lay := layout.NewGroupedReplicated(4, 8, 2)
	d, err := Decide(eightNeighbor(), testParams(8, 2048), lay)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Offload {
		t.Errorf("local layout rejected: %+v", d)
	}
	if !strings.Contains(d.Reason, "locally") {
		t.Errorf("Reason = %q", d.Reason)
	}
	// Offload cost is replica maintenance only (input was already placed;
	// the decision charges output replication).
	if d.OffloadNetBytes >= d.NormalNetBytes {
		t.Errorf("offload %d !< normal %d", d.OffloadNetBytes, d.NormalNetBytes)
	}
}

func TestDecideRejectsHostileStride(t *testing.T) {
	// Strides of 1, 2, and 3 strips are never server-aligned under D=4
	// round-robin: each strip fetches six remote strips, offload traffic
	// exceeds 2× file size, and the prediction core must reject, serving
	// the request as normal I/O.
	pat := features.Pattern{Name: "hostile", Offsets: []features.Offset{
		{Const: -24}, {Const: -16}, {Const: -8}, {Const: 8}, {Const: 16}, {Const: 24},
	}}
	d, err := Decide(pat, testParams(8, 1024), layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Offload {
		t.Errorf("hostile stride accepted: offload=%d normal=%d", d.OffloadNetBytes, d.NormalNetBytes)
	}
	if !strings.Contains(d.Reason, "rejected") {
		t.Errorf("Reason = %q", d.Reason)
	}
}

func TestDecideAcceptsIndependentOnRoundRobin(t *testing.T) {
	pat := features.Pattern{Name: "scan"}
	d, err := Decide(pat, testParams(8, 1024), layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Offload || d.OffloadNetBytes != 0 {
		t.Errorf("independent scan should offload for free: %+v", d)
	}
}

func TestReplicaBytes(t *testing.T) {
	// D=4, r=4, halo=1: 2 of every 4 strips carry one replica each → half
	// the file's bytes move as replicas.
	lc := layout.NewLocator(8, 64, layout.NewGroupedReplicated(4, 4, 1))
	fileSize := int64(64 * 16) // 16 strips
	if got := ReplicaBytes(lc, fileSize); got != fileSize/2 {
		t.Errorf("ReplicaBytes = %d, want %d", got, fileSize/2)
	}
	// Round-robin has none.
	lcRR := layout.NewLocator(8, 64, layout.NewRoundRobin(4))
	if got := ReplicaBytes(lcRR, fileSize); got != 0 {
		t.Errorf("round-robin ReplicaBytes = %d", got)
	}
}

func TestRecommendLayoutSizesHaloAndGroup(t *testing.T) {
	// Width 16 with 8-element strips: max offset W+1 = 17 elements = 136
	// bytes → halo 3 strips. Overhead budget 0.5 → r = 12.
	p := testParams(16, 4096)
	lay, ok, err := RecommendLayout(eightNeighbor(), p, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recommendation declined for a dependent pattern")
	}
	if lay.Halo != 3 {
		t.Errorf("Halo = %d, want 3", lay.Halo)
	}
	if lay.R != 12 {
		t.Errorf("R = %d, want 12 (2·3/0.5)", lay.R)
	}
	if got := layout.OverheadRatio(lay); got > 0.5 {
		t.Errorf("overhead %v exceeds budget", got)
	}
	// The recommended layout must actually be local.
	a, err := Analyze(eightNeighbor(), p, lay)
	if err != nil {
		t.Fatal(err)
	}
	if !a.LocalByLayout {
		t.Errorf("recommended layout not local: %+v", a)
	}
}

func TestRecommendLayoutDeclinesIndependent(t *testing.T) {
	_, ok, err := RecommendLayout(features.Pattern{Name: "scan"}, testParams(8, 512), 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("independent pattern should not need a layout change")
	}
}

func TestRecommendLayoutValidation(t *testing.T) {
	p := testParams(8, 512)
	if _, _, err := RecommendLayout(eightNeighbor(), p, 0, 0.5); err == nil {
		t.Error("zero servers accepted")
	}
	if _, _, err := RecommendLayout(eightNeighbor(), p, 4, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, _, err := RecommendLayout(eightNeighbor(), p, 4, 3); err == nil {
		t.Error("budget over 2 accepted")
	}
}

func TestRecommendLayoutTightBudget(t *testing.T) {
	// A very small overhead budget forces a large group size.
	p := testParams(8, 4096)
	lay, ok, err := RecommendLayout(eightNeighbor(), p, 4, 0.1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if layout.OverheadRatio(lay) > 0.1 {
		t.Errorf("overhead %v exceeds tight budget", layout.OverheadRatio(lay))
	}
}

func TestDecideCachedFlipsHostileStride(t *testing.T) {
	// The same hostile stride TestDecideRejectsHostileStride uses: cache-blind
	// it must reject, but once the halo-strip cache reports a high enough
	// hit fraction the discounted fetch term beats normal I/O and the
	// request flips to an accepted offload.
	pat := features.Pattern{Name: "hostile", Offsets: []features.Offset{
		{Const: -24}, {Const: -16}, {Const: -8}, {Const: 8}, {Const: 16}, {Const: 24},
	}}
	p := testParams(8, 1024)
	lay := layout.NewRoundRobin(4)

	cold, err := Estimate(Kernel(pat), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Offload {
		t.Fatalf("hit fraction 0 accepted: %+v", cold)
	}
	blind, err := Decide(pat, p, lay)
	if err != nil {
		t.Fatal(err)
	}
	if cold.OffloadNetBytes != blind.OffloadNetBytes || cold.Offload != blind.Offload {
		t.Errorf("zero observations != Decide: %+v vs %+v", cold, blind)
	}

	warm, err := Estimate(Kernel(pat), p, lay, Observations{HitFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Offload {
		t.Errorf("90%% hit rate still rejected: offload=%d normal=%d", warm.OffloadNetBytes, warm.NormalNetBytes)
	}
	if warm.CacheHitFrac != 0.9 {
		t.Errorf("CacheHitFrac = %v", warm.CacheHitFrac)
	}
	if warm.OffloadNetBytes >= cold.OffloadNetBytes {
		t.Errorf("discount did not shrink offload bytes: %d -> %d", cold.OffloadNetBytes, warm.OffloadNetBytes)
	}
	if !strings.Contains(warm.Reason, "cache") {
		t.Errorf("Reason = %q", warm.Reason)
	}
}

func TestDecideCachedClampsHitFraction(t *testing.T) {
	pat := features.Pattern{Name: "n", Offsets: []features.Offset{{Const: -8}, {Const: 8}}}
	p := testParams(8, 1024)
	lay := layout.NewRoundRobin(4)
	over, err := Estimate(Kernel(pat), p, lay, Observations{HitFrac: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if over.CacheHitFrac != 1 || over.OffloadNetBytes < 0 {
		t.Errorf("hitFrac 1.5 not clamped: %+v", over)
	}
	under, err := Estimate(Kernel(pat), p, lay, Observations{HitFrac: -0.5})
	if err != nil {
		t.Fatal(err)
	}
	if under.CacheHitFrac != 0 {
		t.Errorf("hitFrac -0.5 not clamped: %+v", under)
	}
}
