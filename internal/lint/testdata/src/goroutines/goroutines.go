// Test fixture for the goroutines analyzer: an ordinary simulated
// package, so every go statement is a finding — the satellite edge case
// of a go statement appearing in a new, non-allowlisted file.
package fakego

import "iter"

func fanOut(work []func()) {
	for _, w := range work {
		go w() // want `go statement outside the allowlisted scheduler sites`
	}
}

func fireAndForget() {
	go func() { // want `go statement outside the allowlisted scheduler sites`
		println("untracked")
	}()
}

// iter.Pull is the other way to start a second stack: a coroutine the
// engine neither orders nor unwinds.
func handRolledCoroutine(seq iter.Seq[int]) int {
	next, stop := iter.Pull(seq) // want `iter.Pull outside internal/sim starts a coroutine`
	defer stop()
	v, _ := next()
	return v
}

func storedPull2(seq iter.Seq2[int, string]) {
	pull := iter.Pull2[int, string] // want `iter.Pull2 outside internal/sim starts a coroutine`
	_, stop := pull(seq)
	stop()
}
