// Test fixture for the detrand analyzer, type-checked under a simulated
// import path so the map-range rule applies.
package fakerand

import (
	"container/heap"
	"sort"

	"github.com/hpcio/das/internal/sim"
)

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func spawnFromMap(e *sim.Engine, procs map[string]func(*sim.Proc)) {
	for name, fn := range procs { // want `map iteration order reaches sim\.Engine\.Spawn`
		e.Spawn(name, fn)
	}
}

func postFromMap(mb *sim.Mailbox[int], pending map[string]int) {
	for _, v := range pending { // want `map iteration order reaches sim\.Mailbox\.Put`
		mb.Put(v)
	}
}

func pushFromMap(h *intHeap, weights map[string]int) {
	for _, w := range weights { // want `map iteration order reaches heap\.Push`
		heap.Push(h, w)
	}
}

func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order reaches append to "keys", which is never sorted afterwards`
		keys = append(keys, k)
	}
	return keys
}

// The blessed pattern: collect, sort, then act in sorted order.
func keysSorted(m map[string]int, e *sim.Engine, procs map[string]func(*sim.Proc)) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Spawn(k, procs[k])
	}
}

// A slice declared inside the loop body never carries map order out.
func loopLocalAppend(m map[string][]int) {
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		_ = local
	}
}

// Ranging over a slice is always fine, whatever the body does.
func sliceRange(e *sim.Engine, names []string) {
	for _, name := range names {
		e.Spawn(name, func(p *sim.Proc) {})
	}
}
