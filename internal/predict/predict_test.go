package predict

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

// Geometry used throughout: 8-byte elements, 64-byte strips (8 elements
// per strip), so strip arithmetic is easy to verify by hand.
func testParams(width int, elems int64) Params {
	return Params{
		ElemSize:     8,
		StripSize:    64,
		FileSize:     elems * 8,
		Width:        width,
		OutputFactor: 1,
	}
}

func eightNeighbor() features.Pattern {
	return features.Pattern{Name: "flow-routing", Offsets: features.EightNeighbor()}
}

func TestAnalyzeIndependentPatternIsFree(t *testing.T) {
	pat := features.Pattern{Name: "scan"}
	a, err := Analyze(pat, testParams(8, 512), layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.RemoteDeps != 0 || a.BWCostBytes != 0 || a.StripFetches != 0 {
		t.Errorf("independent pattern has cost: %+v", a)
	}
	if !a.LocalByLayout {
		t.Error("independent pattern not reported local")
	}
}

func TestAnalyzeRoundRobinStencilIsRemote(t *testing.T) {
	// Width 8 = one strip per row: a row's ±W neighbors are always in
	// adjacent strips on other servers under round-robin.
	a, err := Analyze(eightNeighbor(), testParams(8, 512), layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.RemoteDeps == 0 || a.StripFetches == 0 {
		t.Errorf("round-robin stencil reported free: %+v", a)
	}
	if a.LocalByLayout {
		t.Error("round-robin stencil reported local")
	}
	// Every interior element has 6 of its 8 dependencies in other strips
	// (the whole rows above and below, plus same-row spills at strip
	// edges): remote fraction must be well above half.
	if a.RemoteFrac < 0.5 {
		t.Errorf("RemoteFrac = %v, want > 0.5", a.RemoteFrac)
	}
}

func TestAnalyzeGroupedReplicatedStencilIsLocal(t *testing.T) {
	// Same geometry under the improved distribution with halo 2 (the ±W±1
	// dependence spans up to 2 strip boundaries).
	lay := layout.NewGroupedReplicated(4, 4, 2)
	a, err := Analyze(eightNeighbor(), testParams(8, 1024), lay)
	if err != nil {
		t.Fatal(err)
	}
	if !a.LocalByLayout || a.RemoteDeps != 0 {
		t.Errorf("improved layout not local: %+v", a)
	}
	if a.StripFetches != 0 {
		t.Errorf("improved layout still fetches %d strips", a.StripFetches)
	}
}

func TestBWCostMatchesEq5(t *testing.T) {
	// Eq. (5): bwcost = E · Σ aj. Verify against a hand-computed stride
	// case: 8 elements per strip, stride 8 (exactly one strip), D=2,
	// round-robin. Every element's ±8 dependence is in an adjacent strip,
	// which under D=2 round-robin is always on the other server.
	pat := features.Pattern{Name: "stride", Offsets: features.Stride(8)}
	p := testParams(8, 64) // 8 strips
	a, err := Analyze(pat, p, layout.NewRoundRobin(2))
	if err != nil {
		t.Fatal(err)
	}
	// Elements 0..7 have no -8 dep (clamped), elements 56..63 no +8 dep.
	// Remaining (64-8) elements have a remote -8 dep and (64-8) a remote
	// +8 dep: Σ aj = 112.
	if a.RemoteDeps != 112 {
		t.Errorf("RemoteDeps = %d, want 112", a.RemoteDeps)
	}
	if a.BWCostBytes != 112*8 {
		t.Errorf("BWCostBytes = %d, want %d", a.BWCostBytes, 112*8)
	}
}

func TestStrideLocalWhenEq17Holds(t *testing.T) {
	// stride·E = 2 group spans with D=2... choose: E=8, strip=64, r=1,
	// D=2, stride=16 elements → stride·E=128 bytes = 2 strips = D·1
	// groups: Eq. 17 holds and the element-level sum must agree.
	if !Eq17(16, 8, 64, 1, 2) {
		t.Fatal("Eq17 should hold for stride 16, r=1, D=2")
	}
	pat := features.Pattern{Name: "stride", Offsets: features.Stride(16)}
	p := testParams(8, 512)
	a, err := Analyze(pat, p, layout.NewRoundRobin(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.RemoteDeps != 0 {
		t.Errorf("Eq17-aligned stride has remote dependencies: %+v", a)
	}
	// Eq. (17) speaks of the file's interior. Within a stride of either
	// end the dependence leaves the file and the kernel clamps it to the
	// boundary element, so strips there read the first or last strip —
	// and nothing else — from whoever holds it: strip 1 fetches strip 0
	// and strip 62 strip 63, each its own run under round-robin. That is
	// why the run walk, not the element sum, says whether a LocalOnly run
	// can succeed.
	if a.LocalByLayout || a.StripFetches != 2 || a.StripFetchBytes != 2*p.StripSize {
		t.Errorf("want exactly the two clamped edge fetches and no locality claim: %+v", a)
	}
}

func TestEq17(t *testing.T) {
	cases := []struct {
		stride, e, ss int64
		r, d          int
		want          bool
	}{
		{16, 8, 64, 1, 2, true},  // 128B = 2 strips = 1·D groups
		{8, 8, 64, 1, 2, false},  // 64B = 1 strip: odd number of strips
		{4, 8, 64, 1, 2, false},  // half a strip
		{32, 8, 64, 2, 2, false}, // 256B = 2 groups, 2 mod 2 = 0 → true? 2 groups = D → true
		{-16, 8, 64, 1, 2, true}, // sign-insensitive
		{48, 8, 64, 3, 4, false}, // 384B = 2 groups of 192B, 2 mod 4 ≠ 0
		{96, 8, 64, 3, 4, false}, // 4 groups, 4 mod 4 = 0 → true? recheck below
		{0, 8, 64, 1, 4, true},   // zero stride trivially local
	}
	// Fix the two commented cases by direct computation.
	cases[3].want = true // 32·8=256 = 2·(2·64); 2 mod 2 == 0
	cases[6].want = true // 96·8=768 = 4·(3·64); 4 mod 4 == 0
	for _, c := range cases {
		if got := Eq17(c.stride, c.e, c.ss, c.r, c.d); got != c.want {
			t.Errorf("Eq17(stride=%d, E=%d, ss=%d, r=%d, D=%d) = %v, want %v",
				c.stride, c.e, c.ss, c.r, c.d, got, c.want)
		}
	}
}

func TestFetchPlanRoundRobinAdjacency(t *testing.T) {
	// Width 8 (one row per strip): the ±(W+1) = ±9-element reach of the
	// last element of a strip lands two strips away, so each strip's
	// window is [s-2, s+2], all remote under round-robin with D = 4, where
	// every strip is a run of its own: 2+3+4+4+4+4+3+2 whole strips.
	p := testParams(8, 64) // 8 strips
	a, err := Analyze(eightNeighbor(), p, layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.StripFetches != 26 || a.StripFetchBytes != 26*p.StripSize {
		t.Errorf("round-robin walk fetches %d strips (%d bytes), want 26", a.StripFetches, a.StripFetchBytes)
	}
	// Grouped by two, a server processes each pair as one run and fetches
	// the pair's window once: [0,1] needs 2,3; [2,3] needs 0,1,4,5; [4,5]
	// needs 2,3,6,7; [6,7] needs 4,5. A walk strip by strip counts 18.
	g, err := Analyze(eightNeighbor(), p, layout.NewGrouped(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g.StripFetches != 12 {
		t.Errorf("grouped walk fetches %d strips, want 12: one fetch per run", g.StripFetches)
	}
}

// TestDegradedPlanSpreadsADownPrimarysStrips: with server 1 down under the
// layout that mirrors every strip to both neighbours, the walk prices
// server 1's strips where Exec's first dispatch round runs them — each run
// of two on whichever of server 0 and server 2 has been given fewer strips
// so far, ties to server 0 (Holders order) — and every other strip on its
// primary.
func TestDegradedPlanSpreadsADownPrimarysStrips(t *testing.T) {
	lay := layout.NewGroupedReplicated(4, 2, 2) // strips 2,3, 10,11, … on server 1
	lc := layout.NewLocator(8, 64, lay)
	runs, unservable := assignmentRuns(lc, 32*64, func(srv int) bool { return srv == 1 })
	owner := make(map[int64]int)
	for srv, rs := range runs {
		for _, run := range rs {
			for s := run.first; s <= run.last; s++ {
				owner[s] = srv
			}
		}
	}
	if unservable != 0 || len(owner) != 32 {
		t.Fatalf("%d strips placed, %d unservable; want 32 and 0", len(owner), unservable)
	}
	var lost []int
	for s := int64(0); s < 32; s++ {
		if p := lay.Primary(s); p != 1 {
			if owner[s] != p {
				t.Errorf("strip %d priced on %d, want its live primary %d", s, owner[s], p)
			}
			continue
		}
		lost = append(lost, owner[s])
	}
	if want := []int{2, 2, 0, 0, 2, 2, 0, 0}; !slices.Equal(lost, want) {
		t.Errorf("server 1's strips priced on %v, want %v", lost, want)
	}
}

func TestNeededStripsSparseStride(t *testing.T) {
	// A ±3-strip stride touches exactly {s-3, s, s+3}, not the strips in
	// between — the distinction that makes Eq. (17)-aligned strides free.
	lc := layout.NewLocator(8, 64, layout.NewRoundRobin(4))
	offs := []int64{-24, 24}                           // ±3 strips of 8 elements
	got := NeededStrips(nil, lc, offs, 5*8, 6*8, 1024) // processing strip 5
	want := []int64{2, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("NeededStrips = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NeededStrips = %v, want %v", got, want)
		}
	}
}

func TestNeededStripsClampedBoundary(t *testing.T) {
	// Processing strip 1 with a -3-strip dependence: the raw range lies
	// entirely before the file, so kernels clamp to element 0 — strip 0
	// must be in the needed set.
	lc := layout.NewLocator(8, 64, layout.NewRoundRobin(4))
	got := NeededStrips(nil, lc, []int64{-24}, 1*8, 2*8, 1024)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("NeededStrips = %v, want [0 1]", got)
	}
	// Symmetric at the file end.
	got = NeededStrips(nil, lc, []int64{24}, 126*8, 127*8, 1024)
	if len(got) != 2 || got[0] != 126 || got[1] != 127 {
		t.Fatalf("NeededStrips = %v, want [126 127]", got)
	}
}

// TestNeededStripsFillsCallersSlice: a server asks once per run of every
// request, into one list it keeps — the answer lies in that memory, stale
// contents and all overwritten, and costs no allocation.
func TestNeededStripsFillsCallersSlice(t *testing.T) {
	lc := layout.NewLocator(8, 64, layout.NewRoundRobin(4))
	offs := []int64{-9, -8, -7, -1, 1, 7, 8, 9}
	dst := make([]int64, 3, 64)
	dst[0], dst[1], dst[2] = 99, 98, 97
	got := NeededStrips(dst, lc, offs, 5*8, 7*8, 1024)
	if want := []int64{3, 4, 5, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("NeededStrips = %v, want %v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Error("NeededStrips left the caller's slice unused")
	}
	if n := testing.AllocsPerRun(20, func() { dst = NeededStrips(dst, lc, offs, 5*8, 7*8, 1024) }); n != 0 {
		t.Errorf("NeededStrips into a slice with room allocates %v times, want 0", n)
	}
}

// TestNeededStripsIsTheUnionOfTheRanges holds the interval walk to the
// definition: mark the strips of the owned range and of each offset's
// clamped image of it, then list the marks in order.
func TestNeededStripsIsTheUnionOfTheRanges(t *testing.T) {
	const strip, total = 8, 1024
	lc := layout.NewLocator(8, strip*8, layout.NewRoundRobin(4))
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 2000; n++ {
		offs := make([]int64, rng.Intn(10))
		for i := range offs {
			offs[i] = rng.Int63n(2*total) - total
			if rng.Intn(3) == 0 {
				offs[i] = rng.Int63n(2*strip+1) - strip // near: ranges that touch and overlap
			}
		}
		e0 := rng.Int63n(total)
		e1 := e0 + 1 + rng.Int63n(min(total-e0, 5*strip))
		mark := make(map[int64]bool)
		for _, off := range append([]int64{0}, offs...) {
			lo, hi := min(max(e0+off, 0), total-1), min(max(e1-1+off, 0), total-1)
			for t := lo / strip; t <= hi/strip; t++ {
				mark[t] = true
			}
		}
		var want []int64
		for t := int64(0); t < total/strip; t++ {
			if mark[t] {
				want = append(want, t)
			}
		}
		if got := NeededStrips(nil, lc, offs, e0, e1, total); !slices.Equal(got, want) {
			t.Fatalf("offsets %v over [%d,%d): NeededStrips = %v, want %v", offs, e0, e1, got, want)
		}
	}
}

func TestEq17AlignedStrideHasNoFetches(t *testing.T) {
	// Stride of exactly D strips under round-robin: dependent strips land
	// on the same server, so interior strips fetch nothing even though
	// the stride is large. The three strips within the stride of each
	// file edge on another server than that edge's strip fetch it, once
	// each, and nothing else.
	p := testParams(8, 64*8)                                              // 64 strips
	pat := features.Pattern{Name: "stride", Offsets: features.Stride(32)} // ±4 strips, D = 4
	a, err := Analyze(pat, p, layout.NewRoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.StripFetches != 6 || a.RemoteDeps != 0 {
		t.Fatalf("aligned stride fetches %d strips with %d remote dependences, want the 6 clamped edge fetches and 0",
			a.StripFetches, a.RemoteDeps)
	}
}

func TestFetchPlanEmptyUnderAdequateReplication(t *testing.T) {
	a, err := Analyze(eightNeighbor(), testParams(8, 64*8), layout.NewGroupedReplicated(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.StripFetches != 0 || !a.LocalByLayout {
		t.Fatalf("adequately replicated layout still fetches %d strips", a.StripFetches)
	}
}

// TestStripwiseSumMatchesPerElementSweep holds remoteInStrips to Eq. (5)
// as written — one Locator.LocalDep question per (element, offset) pair —
// on files that end mid-strip, offsets longer than a strip and than the
// file, replica holdings and a half-flipped migration.
func TestStripwiseSumMatchesPerElementSweep(t *testing.T) {
	const eps = 8 // testParams: 64-byte strips of 8-byte elements
	moves := layout.NewMoveSet(64)
	for s := int64(0); s < 20; s++ {
		moves.Set(s)
	}
	layouts := []layout.Layout{
		layout.NewRoundRobin(3),
		layout.NewGrouped(4, 3),
		layout.NewGroupedReplicated(3, 4, 1),
		layout.NewMigrating(layout.NewRoundRobin(4), layout.NewGroupedReplicated(4, 4, 2), moves),
	}
	patterns := [][]int64{
		nil,
		eightNeighbor().Resolve(5),
		features.Pattern{Offsets: features.Stride(4)}.Resolve(5),
		features.Pattern{Offsets: features.Stride(3 * eps)}.Resolve(5),
		{-1000, -eps - 3, 1, 2*eps + 5, 1000},
	}
	for _, lay := range layouts {
		lc := layout.NewLocator(8, 64, lay)
		for _, total := range []int64{1, eps - 1, eps, 5*eps + 3, 37 * eps, 64 * eps} {
			for _, offs := range patterns {
				var want int64
				for i := int64(0); i < total; i++ {
					for _, off := range offs {
						if !lc.LocalDep(i, off, total) {
							want++
						}
					}
				}
				if got := remoteDeps(lc, offs, total); got != want {
					t.Errorf("%s, %d elements, offsets %v: strip-wise sum %d, per-element %d",
						lay.Name(), total, offs, got, want)
				}
			}
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	bad := []Params{
		{ElemSize: 0, StripSize: 64, FileSize: 64, Width: 8, OutputFactor: 1},
		{ElemSize: 8, StripSize: 63, FileSize: 64, Width: 8, OutputFactor: 1},
		{ElemSize: 8, StripSize: 64, FileSize: 0, Width: 8, OutputFactor: 1},
		{ElemSize: 8, StripSize: 64, FileSize: 60, Width: 8, OutputFactor: 1},
		{ElemSize: 8, StripSize: 64, FileSize: 64, Width: 0, OutputFactor: 1},
		{ElemSize: 8, StripSize: 64, FileSize: 64, Width: 8, OutputFactor: -1},
	}
	for i, p := range bad {
		if _, err := Analyze(eightNeighbor(), p, layout.NewRoundRobin(2)); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// Property: a GroupedReplicated layout whose halo is sized by
// RequiredHalo always makes an 8-neighbor stencil fully local, for any
// server count and raster width. (No monotonicity is claimed between
// round-robin and plain grouping: grouping can break an alignment
// round-robin happened to have — e.g. a dependence of exactly D strips —
// which is precisely why the paper predicts instead of assuming.)
func TestRecommendedLayoutAlwaysLocalProperty(t *testing.T) {
	prop := func(dRaw, wRaw uint8) bool {
		d := int(dRaw%6) + 2
		width := int(wRaw%12) + 4
		p := testParams(width, int64(width)*64)
		pat := eightNeighbor()
		probe := layout.NewLocator(p.ElemSize, p.StripSize, layout.NewRoundRobin(d))
		halo := probe.RequiredHalo(pat.MaxAbsOffset(width))
		rep, err := Analyze(pat, p, layout.NewGroupedReplicated(d, 4*halo, halo))
		if err != nil {
			return false
		}
		return rep.RemoteDeps == 0 && rep.LocalByLayout && rep.StripFetches == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
