// Test fixture type-checked as the internal/sim package: the Proc handoff
// lives here, so iter.Pull is legal; a go statement is not.
package sim

import "iter"

func start(loop iter.Seq[struct{}]) (resume func() (struct{}, bool), cancel func()) {
	return iter.Pull(loop)
}

func launch(loop func()) {
	go loop() // want `go statement; spawn a sim.Proc`
}
