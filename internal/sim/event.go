package sim

// event is a scheduled wake-up for a process (*Proc), a pending AfterFunc
// callback (*Timer), or an inline task callback (any other Tasker);
// the dispatch loop type-switches on who. One interface instead of three
// typed fields keeps the struct at 32 bytes with a single heap pointer,
// which matters in the calendar queue: bucket inserts shift events
// constantly, and both the bytes moved and the GC write-barrier work
// scale with the layout. seq breaks timestamp ties in schedule order,
// which keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	who any
}

// before reports whether event a dispatches before event b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
