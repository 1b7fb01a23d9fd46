package fakebuf

import "github.com/hpcio/das/internal/grid"

// Values are lent under Lend's terms: a pooled slice is held until the
// band is dropped.
func lendValuesHeld(n int, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	vals := grid.GetFloats(n)
	band.LendValues(0, vals)
	kernel(band, out)
	band.Release()
	grid.PutFloats(vals)
}

func lendValuesReleasedBeforeKernel(n int, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	vals := grid.GetFloats(n)
	band.LendValues(0, vals)
	grid.PutFloats(vals) // want `buffer lent to a band at line \d+ is released while the band is still in use \(line \d+\)`
	kernel(band, out)
	band.Release()
}

// The family follows slicing, as it does for bytes.
func lendValuesWindowReleasedEarly(n int, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	whole := grid.GetFloats(n)
	window := whole[8:]
	band.LendValues(8, window)
	grid.PutFloats(whole) // want `buffer lent to a band at line \d+ is released while the band is still in use`
	kernel(band, out)
	band.Release()
}

// Retained state and pulled slices are ordinary memory nobody releases:
// lent freely, like a borrowed chunk.
func lendValuesOfKeptState(state map[int64][]float64, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	for t, v := range state {
		band.LendValues(t*8, v)
	}
	kernel(band, out)
	band.Release()
}

// A pooled band's memory, read out and lent on, is the pooled band's: its
// Release returns it to the float pool.
func lendValuesOfAnotherBand(out []float64) {
	src := grid.NewBandPooled(8, 64, 0, 64, 0, 64)
	fill(src.Writable(0, 64))
	dst := grid.NewBandLent(8, 64, 8, 56, 0, 64)
	dst.LendValues(0, src.Run(0, 64))
	kernel(dst, out)
	dst.Release()
	src.Release()
}

func lendValuesOfAnotherBandReleasedEarly(out []float64) {
	src := grid.NewBandPooled(8, 64, 0, 64, 0, 64)
	vals := src.Writable(0, 64)
	fill(vals)
	dst := grid.NewBandLent(8, 64, 8, 56, 0, 64)
	dst.LendValues(0, vals)
	src.Release() // want `buffer lent to a band at line \d+ is released while the band is still in use`
	kernel(dst, out)
	dst.Release()
}

func fill(vals []float64) {}
