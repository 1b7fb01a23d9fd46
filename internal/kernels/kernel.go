// Package kernels implements the paper's data analysis kernels (Table I):
// flow-routing and flow-accumulation from GIS terrain analysis, and the 2D
// Gaussian filter from medical image processing, plus a median filter and
// a configurable stride kernel used in ablations. Each kernel declares its
// dependence pattern in the Kernel Features format and computes over a
// grid.Band, so exactly the same code runs on a compute node (Traditional
// Storage), on a storage server over remotely fetched halos (Normal Active
// Storage), and on a storage server over local replicas (DAS).
package kernels

import (
	"fmt"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
)

// Kernel is one offloadable data analysis operation.
type Kernel interface {
	// Name is the operator name used in kernel-features records and
	// active storage requests.
	Name() string
	// Description is the human-readable summary (Table I).
	Description() string
	// Offsets is the kernel's symbolic dependence pattern.
	Offsets() []features.Offset
	// Weight is the relative per-element compute cost (1.0 = flow-routing).
	// The cluster's cost model multiplies it by a base per-element time.
	Weight() float64
	// ApplyBand computes output elements [b.Start, b.End) into out, which
	// has length b.OwnedLen(). The band must include the halo the
	// dependence pattern requires (see features.Pattern.MaxAbsOffset).
	ApplyBand(b *grid.Band, out []float64)
}

// Pattern returns the kernel's dependence pattern as a features record.
func Pattern(k Kernel) features.Pattern {
	return features.Pattern{Name: k.Name(), Offsets: k.Offsets()}
}

// Apply runs a kernel sequentially over a whole grid: the reference result
// every distributed scheme must reproduce exactly. The kernel reads g's
// values where they lie, through a band over g.Data; it writes only the
// fresh output grid.
func Apply(k Kernel, g *grid.Grid) *grid.Grid {
	b := grid.BandOver(g.W, g.Len(), 0, g.Len(), 0, g.Data)
	out := grid.New(g.W, g.H)
	k.ApplyBand(b, out.Data)
	b.Release()
	return out
}

// Registry maps operator names to kernels, in registration order.
type Registry struct {
	byName map[string]registered
	order  []string
}

// registered is a kernel with its dependence pattern, built once when it
// is registered: Offsets makes a fresh list per call, and a server asks
// per request.
type registered struct {
	k   Kernel
	pat features.Pattern
}

// NewRegistry returns an empty kernel registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]registered)}
}

// Register adds a kernel; re-registering a name replaces it.
func (r *Registry) Register(k Kernel) {
	if k.Name() == "" {
		panic("kernels: kernel with empty name")
	}
	if _, exists := r.byName[k.Name()]; !exists {
		r.order = append(r.order, k.Name())
	}
	r.byName[k.Name()] = registered{k: k, pat: Pattern(k)}
}

// Lookup returns the kernel for an operator name.
func (r *Registry) Lookup(name string) (Kernel, bool) {
	e, ok := r.byName[name]
	return e.k, ok
}

// Pattern returns the dependence pattern of a registered operator, as
// Pattern(k) gave it at registration; its offset list is shared, not the
// caller's to change. An unknown name has the zero pattern.
func (r *Registry) Pattern(name string) features.Pattern { return r.byName[name].pat }

// Names returns registered names in order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Features derives the kernel-features registry (§III-B) from the
// registered kernels: the description file the active storage client
// consults.
func (r *Registry) Features() *features.Registry {
	fr := features.NewRegistry()
	for _, name := range r.order {
		if err := fr.Register(r.byName[name].pat); err != nil {
			panic(fmt.Sprintf("kernels: %v", err))
		}
	}
	return fr
}

// Default returns a registry with the paper's three evaluation kernels,
// the median filter its introduction motivates, and the two further
// operations §III-C names: surface slope analysis (8-neighbor) and a
// 4-neighbor smoothing step.
func Default() *Registry {
	r := NewRegistry()
	r.Register(FlowRouting{})
	r.Register(FlowAccumulation{})
	r.Register(Gaussian{})
	r.Register(Median{})
	r.Register(Slope{})
	r.Register(Diffusion{})
	return r
}
