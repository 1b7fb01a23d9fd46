// Package features implements the paper's Kernel Features component
// (§III-B): a registry of per-operator data dependence patterns that the
// active storage client consults before deciding whether to offload an
// operation.
//
// A pattern describes which elements an operator reads when processing one
// element, as signed offsets in the file's flat element space. Offsets may
// be symbolic in the raster width, exactly as in the paper's record for
// flow-routing:
//
//	Name:flow-routing
//	Dependence: -imgWidth+1, -imgWidth, -imgWidth-1, -1, 1,
//	            imgWidth-1, imgWidth, imgWidth+1
//
// Offsets are linear expressions a·imgWidth + b; Resolve substitutes the
// concrete width of the raster being processed.
package features

import (
	"fmt"
	"sort"
	"strings"
)

// Offset is a symbolic element offset Coef·imgWidth + Const.
type Offset struct {
	Coef  int64 // multiplier of imgWidth
	Const int64 // additive constant
}

// Resolve substitutes the raster width.
func (o Offset) Resolve(width int64) int64 { return o.Coef*width + o.Const }

// IsZero reports whether the offset is identically zero (a self-reference,
// which carries no dependence).
func (o Offset) IsZero() bool { return o.Coef == 0 && o.Const == 0 }

// String renders the offset in the description-file syntax.
func (o Offset) String() string {
	switch {
	case o.Coef == 0:
		return fmt.Sprintf("%d", o.Const)
	case o.Const == 0:
		return coefString(o.Coef)
	case o.Const > 0:
		return fmt.Sprintf("%s+%d", coefString(o.Coef), o.Const)
	default:
		return fmt.Sprintf("%s%d", coefString(o.Coef), o.Const)
	}
}

func coefString(c int64) string {
	switch c {
	case 1:
		return "imgWidth"
	case -1:
		return "-imgWidth"
	default:
		return fmt.Sprintf("%d*imgWidth", c)
	}
}

// Limits on offset magnitude. The coefficient is in units of whole raster
// rows, so no real dependence pattern needs more than a few of them; the
// caps keep Resolve far from int64 overflow for any plausible raster width
// and turn typo'd N*imgWidth coefficients into immediate parse errors.
const (
	MaxCoef  int64 = 1 << 16 // |Coef| bound, rows of reach
	MaxConst int64 = 1 << 32 // |Const| bound, elements of reach
)

func checkBounds(o Offset) error {
	if o.Coef > MaxCoef || o.Coef < -MaxCoef {
		return fmt.Errorf("coefficient %d*imgWidth exceeds %d rows of reach", o.Coef, MaxCoef)
	}
	if o.Const > MaxConst || o.Const < -MaxConst {
		return fmt.Errorf("constant %d exceeds %d elements of reach", o.Const, MaxConst)
	}
	return nil
}

// Pattern is a named dependence pattern: the offsets an operator reads
// relative to each element it processes.
type Pattern struct {
	Name    string
	Offsets []Offset
}

// Validate checks that the pattern is usable: named, with a non-empty
// dependence list, no repeated offsets, and every offset within the reach
// limits. Parse applies it to each record and Register to each pattern, so
// a malformed description file fails loudly instead of feeding the
// prediction model a degenerate dependence set.
func (p Pattern) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("features: pattern with empty name")
	}
	if len(p.Offsets) == 0 {
		return fmt.Errorf("features: pattern %q has an empty dependence list", p.Name)
	}
	seen := make(map[Offset]bool, len(p.Offsets))
	for _, o := range p.Offsets {
		if seen[o] {
			return fmt.Errorf("features: pattern %q repeats offset %q in its dependence list", p.Name, o.String())
		}
		seen[o] = true
		if err := checkBounds(o); err != nil {
			return fmt.Errorf("features: pattern %q: %w", p.Name, err)
		}
	}
	return nil
}

// Resolve returns the concrete offsets for a raster of the given width,
// in the order they were declared.
func (p Pattern) Resolve(width int) []int64 {
	out := make([]int64, len(p.Offsets))
	for i, o := range p.Offsets {
		out[i] = o.Resolve(int64(width))
	}
	return out
}

// MaxAbsOffset returns the farthest element the pattern reaches for a
// raster of the given width; 0 for an independence pattern.
func (p Pattern) MaxAbsOffset(width int) int64 {
	var maxAbs int64
	for _, o := range p.Offsets {
		off := o.Resolve(int64(width))
		maxAbs = max(maxAbs, off, -off)
	}
	return maxAbs
}

// Independent reports whether the pattern has no dependence at all, the
// ideal case for active storage described in the paper's introduction.
func (p Pattern) Independent() bool {
	for _, o := range p.Offsets {
		if !o.IsZero() {
			return false
		}
	}
	return true
}

// String renders the pattern as a description-file record.
func (p Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Name:%s\n", p.Name)
	b.WriteString("Dependence: ")
	for i, o := range p.Offsets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	b.WriteString("\n")
	return b.String()
}

// EightNeighbor is the dependence of flow-routing, flow-accumulation,
// median and Gaussian filters: the 8 surrounding cells.
func EightNeighbor() []Offset {
	return []Offset{
		{-1, 1}, {-1, 0}, {-1, -1}, // row above: NE, N, NW in paper order
		{0, -1}, {0, 1}, // W, E
		{1, -1}, {1, 0}, {1, 1}, // row below
	}
}

// FourNeighbor is the von Neumann neighborhood.
func FourNeighbor() []Offset {
	return []Offset{{-1, 0}, {0, -1}, {0, 1}, {1, 0}}
}

// Stride is the paper's Fig. 6 two-dependence example: elements at
// ±stride (constant, width-independent).
func Stride(n int64) []Offset {
	return []Offset{{0, -n}, {0, n}}
}

// Union combines several patterns into one whose dependence set covers
// them all (duplicate offsets collapse). DAS uses it to plan a single
// data distribution serving a whole workflow of operators over one file:
// the layout must satisfy the widest reach any stage has.
func Union(name string, pats ...Pattern) Pattern {
	out := Pattern{Name: name}
	seen := make(map[Offset]bool)
	for _, p := range pats {
		for _, o := range p.Offsets {
			if seen[o] {
				continue
			}
			seen[o] = true
			out.Offsets = append(out.Offsets, o)
		}
	}
	return out
}

// Registry stores patterns by operator name, case-sensitively, mirroring
// the Kernel Features component embedded in the active storage client.
type Registry struct {
	byName map[string]Pattern
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Pattern)}
}

// Register adds or replaces a pattern after validating it; see
// Pattern.Validate for what is rejected.
func (r *Registry) Register(p Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, exists := r.byName[p.Name]; !exists {
		r.order = append(r.order, p.Name)
	}
	r.byName[p.Name] = p
	return nil
}

// Lookup returns the pattern for an operator.
func (r *Registry) Lookup(name string) (Pattern, bool) {
	p, ok := r.byName[name]
	return p, ok
}

// Names returns registered operator names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Len returns the number of registered patterns.
func (r *Registry) Len() int { return len(r.byName) }

// Format renders the whole registry as a description file, one record per
// pattern, in registration order.
func (r *Registry) Format() string {
	var b strings.Builder
	for i, name := range r.order {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.byName[name].String())
	}
	return b.String()
}

// SortedResolve is a convenience for reporting: the concrete offsets of an
// operator sorted ascending.
func (r *Registry) SortedResolve(name string, width int) ([]int64, error) {
	p, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("features: unknown operator %q", name)
	}
	offs := p.Resolve(width)
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs, nil
}
