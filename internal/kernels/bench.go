package kernels

import "github.com/hpcio/das/internal/grid"

// This file exists only for the bench/ module, whose kernels probe still
// calls these two. Kernels run on the caller's goroutine: there is no
// executor to configure and nothing to shard. No product code or test
// calls them; the file goes when ROADMAP item 3 moves bench/ onto the
// scenario runner.

// SetParallelism does nothing.
func SetParallelism(int) {}

// ParallelApplyBand is k.ApplyBand(b, out).
func ParallelApplyBand(k Kernel, b *grid.Band, out []float64) { k.ApplyBand(b, out) }
