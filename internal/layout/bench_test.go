package layout

import "testing"

// Placement lookups sit on the hot path of every strip operation; they
// must stay allocation-free.
func BenchmarkRoundRobinPrimary(b *testing.B) {
	l := NewRoundRobin(12)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += l.Primary(int64(i))
	}
	_ = sink
}

func BenchmarkGroupedReplicatedPrimary(b *testing.B) {
	l := NewGroupedReplicated(12, 8, 2)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += l.Primary(int64(i))
	}
	_ = sink
}

func BenchmarkGroupedReplicatedHolders(b *testing.B) {
	l := NewGroupedReplicated(12, 8, 2)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += l.Holders(int64(i)).Len()
	}
	_ = sink
}

func BenchmarkLocatorLocalDep(b *testing.B) {
	lc := NewLocator(8, 64*1024, NewGroupedReplicated(12, 8, 2))
	const total = 1 << 22
	offs := []int64{-8193, -8192, -8191, -1, 1, 8191, 8192, 8193}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		e := int64(i) % total
		for _, off := range offs {
			if lc.LocalDep(e, off, total) {
				sink++
			}
		}
	}
	_ = sink
}
