package bufpool

import (
	"math"
	"testing"
)

func TestGetRoundsCapacityUpToItsClass(t *testing.T) {
	var p Pool[byte]
	for _, tc := range []struct{ n, wantCap int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	} {
		s := p.Get(tc.n)
		if len(s) != tc.n || cap(s) != tc.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(s), cap(s), tc.n, tc.wantCap)
		}
	}
}

func TestGetReusesAnySliceOfTheClass(t *testing.T) {
	var p Pool[float64]
	a := p.Get(700) // class 1024
	p.Put(a)
	b := p.Get(513) // same class: must be a's array, resliced
	if &b[0] != &a[0] || len(b) != 513 {
		t.Errorf("Get(513) after Put of a 1024-cap slice: reused=%v len=%d", &b[0] == &a[0], len(b))
	}
	c := p.Get(512) // class 512: a different free list, so a fresh array
	if &c[0] == &a[0] {
		t.Error("Get(512) was served from the 1024 class")
	}
}

func TestZeroLength(t *testing.T) {
	var p Pool[byte]
	if s := p.Get(0); s != nil {
		t.Errorf("Get(0) = %v (cap %d), want nil", s, cap(s))
	}
	p.Put(nil)
	p.Put([]byte{})
	for c, free := range p.classes {
		if len(free) != 0 {
			t.Errorf("class %d holds %d slices after zero-capacity Puts", c, len(free))
		}
	}
}

func TestPutBoundsEachClass(t *testing.T) {
	var p Pool[byte]
	for i := 0; i < maxPerClass+10; i++ {
		p.Put(make([]byte, 64))
	}
	if got := len(p.classes[class(64)]); got != maxPerClass {
		t.Errorf("class of 64 holds %d slices, want the cap %d", got, maxPerClass)
	}
}

// A slice allocated elsewhere joins the largest class it can fully serve:
// a later Get of that class must never receive less capacity than it asked
// for.
func TestPutOfForeignSliceFloorsItsClass(t *testing.T) {
	var p Pool[byte]
	foreign := make([]byte, 10, 1500) // between 1024 and 2048
	p.Put(foreign)
	if len(p.classes[class(1024)]) != 1 || len(p.classes[class(2048)]) != 0 {
		t.Fatalf("1500-cap slice filed under the wrong class: %d in 1024, %d in 2048",
			len(p.classes[class(1024)]), len(p.classes[class(2048)]))
	}
	s := p.Get(1024)
	if &s[0] != &foreign[0] || len(s) != 1024 {
		t.Errorf("Get(1024) did not reuse the foreign slice at full length (len %d)", len(s))
	}
	if s := p.Get(1500); cap(s) < 1500 {
		t.Errorf("Get(1500) returned cap %d", cap(s))
	}
}

func TestAuditPoisonsEveryPut(t *testing.T) {
	done := Audit()
	var bp Pool[byte]
	b := bp.Get(100)
	clear(b[:cap(b)])
	bp.Put(b)
	for i, v := range b[:cap(b)] {
		if v != poisonByte {
			t.Fatalf("byte %d of a Put slice reads %#x under the audit", i, v)
		}
	}
	var fp Pool[float64]
	f := fp.Get(10)
	clear(f)
	fp.Put(f)
	if got := math.Float64bits(f[9]); got != poisonByte*0x0101010101010101 {
		t.Errorf("float of a Put slice reads %#x under the audit", got)
	}
	if n := done(); n != 0 {
		t.Errorf("%d slices outstanding after every Get was Put", n)
	}

	c := bp.Get(100)
	clear(c)
	bp.Put(c)
	if c[0] != 0 {
		t.Error("Put still scribbles after the audit is done")
	}
}

// TestAuditCountsWhatGetHandsOut: the ledger holds a slice from its Get to
// its Put, whatever length either end sees; a slice the pool never handed
// out, or handed out before the audit began, is not counted when Put.
func TestAuditCountsWhatGetHandsOut(t *testing.T) {
	var p Pool[float64]
	before := p.Get(8)
	done := Audit()
	kept, returned := p.Get(700), p.Get(3)
	p.Put(returned[:1])
	p.Put(make([]float64, 5)) // foreign
	p.Put(before)
	if n := done(); n != 1 {
		t.Errorf("%d slices outstanding, want 1 (kept)", n)
	}
	p.Put(kept)

	// Off, nothing is recorded: a later audit starts from zero.
	leaked := p.Get(16)
	if n := Audit()(); n != 0 {
		t.Errorf("a fresh audit reports %d outstanding", n)
	}
	p.Put(leaked)
}

// TestAuditCatchesADoublePut: a slice Put twice sits on the free list
// twice, and the second Get that serves it hands two holders one array.
func TestAuditCatchesADoublePut(t *testing.T) {
	defer Audit()()
	var p Pool[byte]
	s := p.Get(64)
	p.Put(s)
	p.Put(s)
	first := p.Get(64)
	defer func() {
		if recover() == nil {
			t.Error("a slice handed out twice passed the audit")
		}
		p.Put(first)
	}()
	p.Get(64)
}
