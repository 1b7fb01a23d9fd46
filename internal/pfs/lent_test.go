package pfs

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"testing"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// TestReadLentMatchesReadInto holds the lending read to the copying one it
// replaced as the client read's body: over every placement a client can
// meet — round-robin, grouped, grouped with replicas, and a migration
// caught mid-flip — and for ranges that start and end mid-strip, sit
// inside one strip, span every server, or are empty, the windows tile the
// range, read what ReadInto reads, and the engine dispatches the same
// events over the same simulated time for either.
func TestReadLentMatchesReadInto(t *testing.T) {
	const strip = 64
	const strips = 13
	const size = strips*strip + 24 // a short last strip
	rr := layout.NewRoundRobin(4)
	layouts := []struct {
		name string
		lay  layout.Layout
	}{
		{"round-robin", rr},
		{"grouped", layout.NewGrouped(4, 3)},
		{"grouped-replicated", layout.NewGroupedReplicated(4, 2, 1)},
		{"migrating", nil}, // written round-robin, then flipped strip by strip below
	}
	ranges := []struct {
		name        string
		off, length int64
	}{
		{"whole file", 0, size},
		{"mid-strip to mid-strip", 40, 5*strip + 9},
		{"inside one strip", 3*strip + 8, 16},
		{"exactly one strip", 2 * strip, strip},
		{"every server", strip - 1, 4*strip + 2},
		{"into the short tail", 12*strip + 32, 56},
		{"empty", 5 * strip, 0},
		{"empty at the end", size, 0},
	}
	data := pattern(size)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			clu, fs := testFS(t)
			defer clu.Eng.Shutdown()
			client := fs.NewClient(clu.ComputeID(0))
			lay := l.lay
			if lay == nil {
				lay = rr
			}
			if _, err := fs.Create("f", size, lay, CreateOptions{StripSize: strip}); err != nil {
				t.Fatal(err)
			}
			run(t, clu, func(p *sim.Proc) {
				if err := client.WriteAll(p, "f", data); err != nil {
					t.Error(err)
				}
			})
			if l.lay == nil {
				// Every third strip has moved to its grouped home; the rest
				// still resolve round-robin.
				target := layout.NewGrouped(4, 2)
				moves := layout.NewMoveSet(strips + 1)
				run(t, clu, func(p *sim.Proc) {
					for s := int64(0); s <= strips; s += 3 {
						if to := target.Primary(s); to != rr.Primary(s) {
							if err := fs.MigrateStrip(p, clu.ComputeID(0), rr.Primary(s), "f", s, []int{to}); err != nil {
								t.Error(err)
							}
						}
						moves.Set(s)
					}
				})
				if err := fs.SetLayout("f", layout.NewMigrating(rr, target, moves)); err != nil {
					t.Fatal(err)
				}
			}

			// measure runs one read alone and returns what it cost the engine.
			measure := func(read func(p *sim.Proc) error) (events uint64, took sim.Time) {
				t.Helper()
				e0, t0 := clu.Eng.Events(), clu.Eng.Now()
				run(t, clu, func(p *sim.Proc) {
					if err := read(p); err != nil {
						t.Error(err)
					}
				})
				return clu.Eng.Events() - e0, clu.Eng.Now() - t0
			}
			for _, r := range ranges {
				want := data[r.off : r.off+r.length]
				copied := make([]byte, r.length)
				copyEvents, copyTime := measure(func(p *sim.Proc) error {
					return client.ReadInto(p, "f", r.off, copied)
				})
				type window struct {
					at   int64
					data []byte
				}
				var windows []window
				lentEvents, lentTime := measure(func(p *sim.Proc) error {
					return client.ReadLent(p, "f", r.off, r.length, func(at int64, w []byte) {
						if cap(w) != len(w) {
							t.Errorf("%s: window at %d has spare capacity %d: an append would write into the store",
								r.name, at, cap(w)-len(w))
						}
						windows = append(windows, window{at, w})
					})
				})
				sort.Slice(windows, func(i, j int) bool { return windows[i].at < windows[j].at })
				var lent []byte
				next := r.off
				for _, w := range windows {
					if w.at != next || len(w.data) == 0 {
						t.Fatalf("%s: window of %d bytes at %d, want the next one at %d: the windows do not tile the range",
							r.name, len(w.data), w.at, next)
					}
					lent = append(lent, w.data...)
					next += int64(len(w.data))
				}
				if wantWindows := int((r.off+r.length+strip-1)/strip - r.off/strip); r.length > 0 && len(windows) != wantWindows {
					t.Errorf("%s: %d windows, want one per strip touched (%d)", r.name, len(windows), wantWindows)
				}
				if !bytes.Equal(copied, want) || !bytes.Equal(lent, want) {
					t.Errorf("%s: ReadInto right=%v, ReadLent right=%v", r.name, bytes.Equal(copied, want), bytes.Equal(lent, want))
				}
				if lentEvents != copyEvents || lentTime != copyTime {
					t.Errorf("%s: ReadLent took %d events and %v, ReadInto %d and %v", r.name, lentEvents, lentTime, copyEvents, copyTime)
				}
			}

			// Both refuse the same ranges, before anything is read.
			for _, r := range []struct{ off, length int64 }{{-1, 8}, {size - 4, 8}, {8, -8}} {
				run(t, clu, func(p *sim.Proc) {
					err := client.ReadLent(p, "f", r.off, r.length, func(int64, []byte) {
						t.Errorf("read [%d,%+d) of a %d-byte file reached the callback", r.off, r.length, size)
					})
					if err == nil {
						t.Errorf("read [%d,%+d) of a %d-byte file accepted", r.off, r.length, size)
					}
				})
			}
		})
	}
}

// TestReadLentAllocs is TestClientReadAllocs' guard for the lending read:
// what it allocates is the engine's bookkeeping and a span per strip, the
// same whether the strips are small or large, and nothing the size of the
// bytes read.
func TestReadLentAllocs(t *testing.T) {
	perRead := func(stripSize int64) (bytesPerOp uint64) {
		clu, fs := testFS(t)
		defer clu.Eng.Shutdown()
		const strips = 16
		size := strips * stripSize
		if _, err := fs.Create("f", size, layout.NewRoundRobin(4), CreateOptions{StripSize: stripSize}); err != nil {
			t.Fatal(err)
		}
		client := fs.NewClient(clu.ComputeID(0))
		run(t, clu, func(p *sim.Proc) {
			if err := client.WriteAll(p, "f", make([]byte, size)); err != nil {
				t.Error(err)
			}
		})
		var seen int64
		readOnce := func() {
			run(t, clu, func(p *sim.Proc) {
				if err := client.ReadLent(p, "f", 0, size, func(_ int64, w []byte) { seen += int64(len(w)) }); err != nil {
					t.Error(err)
				}
			})
		}
		readOnce() // warm the engine's pools
		// The least of three windows of 8 reads: one stray allocation the
		// host makes during a window lands in that window only.
		const reads, windows = 8, 3
		bytesPerOp = math.MaxUint64
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reads; i++ {
				readOnce()
			}
			runtime.ReadMemStats(&after)
			bytesPerOp = min(bytesPerOp, (after.TotalAlloc-before.TotalAlloc)/reads)
		}
		if seen != (windows*reads+1)*size {
			t.Fatalf("windows covered %d bytes, want %d", seen, (windows*reads+1)*size)
		}
		return bytesPerOp
	}
	small, large := perRead(1<<10), perRead(1<<16)
	t.Logf("lending read of 16 strips: %d bytes/op at 1 KiB strips, %d at 64 KiB", small, large)
	if large >= 1<<16 {
		t.Errorf("reading 1 MiB allocates %d bytes: something the size of a strip is being allocated", large)
	}
	if large > small+small/4 {
		t.Errorf("reading 64× the bytes allocates %d bytes against %d: allocation follows the bytes read", large, small)
	}
}
