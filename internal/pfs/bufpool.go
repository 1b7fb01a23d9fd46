package pfs

import "github.com/hpcio/das/internal/bufpool"

// Strip buffer pool. Every read that leaves a server copies strip bytes
// out of the store (LocalRead and the request chain, via peek) and every
// client read assembles those copies into a contiguous result; at steady
// state the simulator churns through identically sized buffers millions of
// times per experiment. The pool recycles them. Buffers flow one way —
// server copy → response message → consumer — so the consumer that
// finishes with a buffer releases it. Stored strips are the one thing that
// must never reach the pool: the store keeps kernel output and replica
// forwards by reference and lends its slices to server-local readers
// (LocalViewMany), so a recycled one would be scribbled over while still
// a file's contents. Client bytes are copied as they enter a primary
// (entering, server.go), which is what lets a sender release or reuse its
// buffer the moment the write returns.

var bufPool bufpool.Pool[byte]

// AcquireBuffer returns a byte slice of length n whose contents are
// arbitrary (callers overwrite it). Release it with ReleaseBuffer when no
// reference remains.
func AcquireBuffer(n int64) []byte {
	//das:transfer -- this wrapper is the pool's hand-out point; the caller owns the buffer
	return bufPool.Get(int(n))
}

// ReleaseBuffer recycles a buffer obtained from AcquireBuffer (releasing a
// foreign slice is also safe). The caller must not use it afterwards.
func ReleaseBuffer(b []byte) {
	bufPool.Put(b)
}
