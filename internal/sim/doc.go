// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// A simulation is driven by an Engine that owns a virtual clock and an
// event queue. Work is expressed as processes: ordinary Go functions that
// run on their own coroutine stacks and execute strictly one at a time,
// switching back to the engine whenever they block on a simulated operation
// (Sleep, Resource.Acquire, Mailbox.Get, Signal.Wait). Because exactly one
// process runs at any instant and ties in the event queue are broken by
// insertion order, a simulation is fully deterministic: the same program
// produces the same event trace and the same final clock on every run.
//
// The engine models time as integer nanoseconds (Time). Physical resources
// with finite capacity (NICs, disks, CPUs) are modeled by Resource, a FIFO
// counting semaphore. Message channels between processes are modeled by
// Mailbox, an unbounded FIFO queue with blocking receive. One-shot
// completion notifications are modeled by Signal.
package sim
