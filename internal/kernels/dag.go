package kernels

import (
	"fmt"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
)

// NodeKind classifies a DAG node by the operator family it runs.
type NodeKind int

const (
	// KindKernel is a stencil kernel from the kernel Registry.
	KindKernel NodeKind = iota
	// KindCombine is an element-wise join of two parent nodes.
	KindCombine
	// KindReduce is a terminal aggregation from the ReducerRegistry.
	KindReduce
)

func (k NodeKind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindCombine:
		return "combine"
	case KindReduce:
		return "reduce"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one stage of an operator DAG. A kernel node with no parents
// reads the DAG input; every other node consumes the output of its
// parents.
type Node struct {
	// ID names the node within the DAG; unique, non-empty.
	ID string
	// Kind selects the operator family.
	Kind NodeKind
	// Op is the operator name, resolved against the registry matching
	// Kind.
	Op string
	// Parents are the IDs of the nodes whose output this node consumes:
	// none or one for a kernel (none means the DAG input), exactly two
	// for a combine, exactly one for a reduce.
	Parents []string
}

// DAG is a named operator graph submitted for pushdown execution. The
// graph must be acyclic with exactly one sink; if the sink is a reduce,
// its parent is the DAG's grid output (the raster committed back to the
// file system) and the reduce aggregate travels back to the client.
type DAG struct {
	Name  string
	Nodes []Node
}

// Chain builds a linear DAG over the named kernels, optionally terminated
// by a reducer. Node IDs are "s0", "s1", … in stage order.
func Chain(name string, ops []string, reduce string) DAG {
	d := DAG{Name: name}
	var prev []string
	for i, op := range ops {
		id := fmt.Sprintf("s%d", i)
		d.Nodes = append(d.Nodes, Node{ID: id, Kind: KindKernel, Op: op, Parents: prev})
		prev = []string{id}
	}
	if reduce != "" {
		d.Nodes = append(d.Nodes, Node{
			ID: fmt.Sprintf("s%d", len(ops)), Kind: KindReduce, Op: reduce, Parents: prev,
		})
	}
	return d
}

// index returns the position of each node ID, or an error on duplicates.
func (d DAG) index() (map[string]int, error) {
	idx := make(map[string]int, len(d.Nodes))
	for i, n := range d.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("kernels: dag %q: node %d has an empty ID", d.Name, i)
		}
		if _, dup := idx[n.ID]; dup {
			return nil, fmt.Errorf("kernels: dag %q: duplicate node ID %q", d.Name, n.ID)
		}
		idx[n.ID] = i
	}
	return idx, nil
}

// TopoOrder returns node indexes in a deterministic topological order:
// among ready nodes, the one declared first runs first. It fails on
// cycles and unknown parents.
func (d DAG) TopoOrder() ([]int, error) {
	idx, err := d.index()
	if err != nil {
		return nil, err
	}
	placed := make([]bool, len(d.Nodes))
	order := make([]int, 0, len(d.Nodes))
	for len(order) < len(d.Nodes) {
		progressed := false
		for i, n := range d.Nodes {
			if placed[i] {
				continue
			}
			ready := true
			for _, p := range n.Parents {
				j, ok := idx[p]
				if !ok {
					return nil, fmt.Errorf("kernels: dag %q: node %q names unknown parent %q", d.Name, n.ID, p)
				}
				if j == i {
					return nil, fmt.Errorf("kernels: dag %q: node %q is its own parent", d.Name, n.ID)
				}
				if !placed[j] {
					ready = false
					break
				}
			}
			if ready {
				placed[i] = true
				order = append(order, i)
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("kernels: dag %q has a cycle", d.Name)
		}
	}
	return order, nil
}

// consumers returns, per node index, the indexes of nodes consuming it.
func (d DAG) consumers(idx map[string]int) [][]int {
	out := make([][]int, len(d.Nodes))
	for i, n := range d.Nodes {
		for _, p := range n.Parents {
			j := idx[p]
			out[j] = append(out[j], i)
		}
	}
	return out
}

// Sink returns the index of the DAG's unique sink (the node no other node
// consumes).
func (d DAG) Sink() (int, error) {
	idx, err := d.index()
	if err != nil {
		return -1, err
	}
	cons := d.consumers(idx)
	sink := -1
	for i := range d.Nodes {
		if len(cons[i]) == 0 {
			if sink >= 0 {
				return -1, fmt.Errorf("kernels: dag %q has multiple sinks (%q and %q)",
					d.Name, d.Nodes[sink].ID, d.Nodes[i].ID)
			}
			sink = i
		}
	}
	if sink < 0 {
		return -1, fmt.Errorf("kernels: dag %q has no sink", d.Name)
	}
	return sink, nil
}

// Validate checks the DAG's structure and resolves every operator against
// the given registries: acyclic, one sink, kernels with at most one
// parent, combines with exactly two distinct parents, and at most one
// reduce, which must be the sink with exactly one parent.
func (d DAG) Validate(reg *Registry, combs *CombinerRegistry, reds *ReducerRegistry) error {
	if d.Name == "" {
		return fmt.Errorf("kernels: dag with empty name")
	}
	if len(d.Nodes) == 0 {
		return fmt.Errorf("kernels: dag %q has no nodes", d.Name)
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	sink, err := d.Sink()
	if err != nil {
		return err
	}
	reduces := 0
	for i, n := range d.Nodes {
		switch n.Kind {
		case KindKernel:
			if len(n.Parents) > 1 {
				return fmt.Errorf("kernels: dag %q: kernel node %q has %d parents, want at most 1", d.Name, n.ID, len(n.Parents))
			}
			if _, ok := reg.Lookup(n.Op); !ok {
				return fmt.Errorf("kernels: dag %q: node %q: unknown kernel %q (known: %v)", d.Name, n.ID, n.Op, reg.Names())
			}
		case KindCombine:
			if len(n.Parents) != 2 || n.Parents[0] == n.Parents[1] {
				return fmt.Errorf("kernels: dag %q: combine node %q needs exactly two distinct parents, got %v", d.Name, n.ID, n.Parents)
			}
			if _, ok := combs.Lookup(n.Op); !ok {
				return fmt.Errorf("kernels: dag %q: node %q: unknown combiner %q (known: %v)", d.Name, n.ID, n.Op, combs.Names())
			}
		case KindReduce:
			reduces++
			if i != sink {
				return fmt.Errorf("kernels: dag %q: reduce node %q must be the sink", d.Name, n.ID)
			}
			if len(n.Parents) != 1 {
				return fmt.Errorf("kernels: dag %q: reduce node %q needs exactly one parent, got %v", d.Name, n.ID, n.Parents)
			}
			if _, ok := reds.Lookup(n.Op); !ok {
				return fmt.Errorf("kernels: dag %q: node %q: unknown reducer %q (known: %v)", d.Name, n.ID, n.Op, reds.Names())
			}
		default:
			return fmt.Errorf("kernels: dag %q: node %q has unknown kind %d", d.Name, n.ID, int(n.Kind))
		}
	}
	if reduces > 1 {
		return fmt.Errorf("kernels: dag %q has %d reduce nodes, want at most 1", d.Name, reduces)
	}
	return nil
}

// ReduceNode returns the index of the terminal reduce, or -1.
func (d DAG) ReduceNode() int {
	for i, n := range d.Nodes {
		if n.Kind == KindReduce {
			return i
		}
	}
	return -1
}

// GridOutput returns the index of the node whose raster the DAG commits:
// the sink, or the reduce's parent when the sink is a reduce.
func (d DAG) GridOutput() (int, error) {
	sink, err := d.Sink()
	if err != nil {
		return -1, err
	}
	if d.Nodes[sink].Kind != KindReduce {
		return sink, nil
	}
	idx, err := d.index()
	if err != nil {
		return -1, err
	}
	return idx[d.Nodes[sink].Parents[0]], nil
}

// ownPattern is the node's own dependence: the kernel's registered
// pattern, or a pure self-reference for combines and reduces.
func (d DAG) ownPattern(n Node, reg *Registry) (features.Pattern, error) {
	if n.Kind == KindKernel {
		k, ok := reg.Lookup(n.Op)
		if !ok {
			return features.Pattern{}, fmt.Errorf("kernels: dag %q: unknown kernel %q", d.Name, n.Op)
		}
		return Pattern(k), nil
	}
	return features.Pattern{Name: n.Op, Offsets: []features.Offset{{}}}, nil
}

// NodePatterns returns each node's composed dependence on the DAG input,
// indexed like d.Nodes: chains Minkowski-sum stage offsets, joins union
// the branch compositions (per-direction maxima of reach), and
// zero-offset stages compose as the identity.
func (d DAG) NodePatterns(reg *Registry) ([]features.Pattern, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	idx, _ := d.index()
	pats := make([]features.Pattern, len(d.Nodes))
	for _, i := range order {
		n := d.Nodes[i]
		own, err := d.ownPattern(n, reg)
		if err != nil {
			return nil, err
		}
		base := features.Compose(n.ID) // self-reference for input readers
		for pi, p := range n.Parents {
			if pi == 0 {
				base = pats[idx[p]]
			} else {
				base = features.UnionOffsets(n.ID, base, pats[idx[p]])
			}
		}
		pats[i] = features.Compose(n.ID+"/"+own.Name, base, own)
	}
	return pats, nil
}

// InputPattern returns the sink's composed dependence on the DAG input —
// the pattern the whole pipeline presents to the prediction core and the
// reach the I/O lower bound is computed from.
func (d DAG) InputPattern(reg *Registry) (features.Pattern, error) {
	pats, err := d.NodePatterns(reg)
	if err != nil {
		return features.Pattern{}, err
	}
	sink, err := d.Sink()
	if err != nil {
		return features.Pattern{}, err
	}
	p := pats[sink]
	p.Name = d.Name
	return p, nil
}

// ApplyDAG evaluates the DAG sequentially over a whole in-memory grid and
// returns the grid-output node's raster — the byte-exact reference every
// distributed pipeline execution must reproduce. The terminal reduce, if
// any, is not folded here; use ReduceStriped on the returned grid. Each
// kernel reads its source in place (Apply), and an intermediate raster is
// dropped once its last consumer has read it, so a chain holds at most a
// node's inputs and its output at a time.
func ApplyDAG(d DAG, reg *Registry, combs *CombinerRegistry, in *grid.Grid) (*grid.Grid, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	idx, _ := d.index()
	gridOut, err := d.GridOutput()
	if err != nil {
		return nil, err
	}
	unread := make([]int, len(d.Nodes)) // consumers yet to run, per node
	for j, c := range d.consumers(idx) {
		unread[j] = len(c)
	}
	vals := make([]*grid.Grid, len(d.Nodes))
	for _, i := range order {
		n := d.Nodes[i]
		switch n.Kind {
		case KindKernel:
			k, ok := reg.Lookup(n.Op)
			if !ok {
				return nil, fmt.Errorf("kernels: dag %q: unknown kernel %q", d.Name, n.Op)
			}
			src := in
			if len(n.Parents) == 1 {
				src = vals[idx[n.Parents[0]]]
			}
			vals[i] = Apply(k, src)
		case KindCombine:
			c, ok := combs.Lookup(n.Op)
			if !ok {
				return nil, fmt.Errorf("kernels: dag %q: unknown combiner %q", d.Name, n.Op)
			}
			a, b := vals[idx[n.Parents[0]]], vals[idx[n.Parents[1]]]
			out := grid.New(a.W, a.H)
			for j := range out.Data {
				out.Data[j] = c.Combine(a.Data[j], b.Data[j])
			}
			vals[i] = out
		case KindReduce:
			// Terminal; nothing to materialize.
		}
		for _, p := range n.Parents {
			j := idx[p]
			if unread[j]--; unread[j] == 0 && j != gridOut {
				vals[j] = nil
			}
		}
	}
	if vals[gridOut] == nil {
		return nil, fmt.Errorf("kernels: dag %q produced no grid output", d.Name)
	}
	return vals[gridOut], nil
}

// ReduceStriped folds a reducer over a grid one strip at a time, each read
// in place, merging the per-strip partials in ascending strip order with a
// single Merge call. This canonical fold is invariant to which server
// computed which strip, so a pipeline reduce reproduces it bit-for-bit even
// when crashes reassign strips mid-run.
func ReduceStriped(r Reducer, g *grid.Grid, stripElems int64) []float64 {
	if stripElems <= 0 {
		stripElems = g.Len()
	}
	partials := make([][]float64, 0, (g.Len()+stripElems-1)/stripElems)
	for lo := int64(0); lo < g.Len(); lo += stripElems {
		hi := min(lo+stripElems, g.Len())
		b := grid.BandOver(g.W, g.Len(), lo, hi, lo, g.Data[lo:hi])
		partials = append(partials, r.ReduceBand(b))
		b.Release()
	}
	return r.Merge(partials)
}
