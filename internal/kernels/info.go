package kernels

import "github.com/hpcio/das/internal/features"

// Info is one registry entry's discoverable metadata: what `dasctl
// -kernels` prints so clients can author DAG specs without reading
// source.
type Info struct {
	// Name is the operator name used in requests and DAG specs.
	Name string
	// Kind is the operator family: "kernel", "combine", or "reduce".
	Kind string
	// Offsets is the symbolic dependence pattern (empty reach for
	// combiners and reducers).
	Offsets []features.Offset
	// Weight is the relative per-element compute cost (flops/elem proxy;
	// 1.0 = flow-routing).
	Weight float64
	// PartialLen is the aggregate length for reducers, 0 otherwise.
	PartialLen int
	// Description is the human-readable summary.
	Description string
}

// List returns every registered kernel's metadata in registration order.
func (r *Registry) List() []Info {
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		k := r.byName[name].k
		out = append(out, Info{
			Name:        k.Name(),
			Kind:        KindKernel.String(),
			Offsets:     k.Offsets(),
			Weight:      k.Weight(),
			Description: k.Description(),
		})
	}
	return out
}

// List returns every registered reducer's metadata in registration order.
func (r *ReducerRegistry) List() []Info {
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		red := r.byName[name]
		out = append(out, Info{
			Name:        red.Name(),
			Kind:        KindReduce.String(),
			Weight:      red.Weight(),
			PartialLen:  red.PartialLen(),
			Description: red.Description(),
		})
	}
	return out
}

// List returns every registered combiner's metadata in registration order.
func (r *CombinerRegistry) List() []Info {
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		c := r.byName[name]
		out = append(out, Info{
			Name:        c.Name(),
			Kind:        KindCombine.String(),
			Weight:      c.Weight(),
			Description: c.Description(),
		})
	}
	return out
}
