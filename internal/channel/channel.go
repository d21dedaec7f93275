// Package channel implements the physical-link constraint models under which
// a secure WSN operates. The paper's model is the on/off channel: every
// node-to-node channel is independently on with probability p (an
// Erdős–Rényi graph on the sensors, Section II). Full visibility (always-on
// channels) and the disk model (random geometric graph, Section IX) are
// provided for the baseline and extension experiments.
package channel

import (
	"fmt"
	"math"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

// Model is a channel model: it decides which node pairs have usable
// communication channels, one draw at a time.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Validate reports whether the model's parameters are well-formed. It is
	// checked eagerly at construction time (wsn.NewDeployer, wsn.Deploy) so
	// misconfigurations surface before any sampling work.
	Validate() error
	// EmitEdges streams one channel draw on n nodes to yield, edge by edge,
	// without materializing a graph; Sample collects it into CSR. Every
	// built-in model yields each unordered pair at most once, which the
	// streaming degree accumulator depends on (a union-find sink would
	// tolerate duplicates, a degree count does not), so other models feeding
	// wsn.Deployer's degree mode must be duplicate-free too. When yield
	// returns false the draw stops immediately and the rest of its
	// randomness is NOT consumed: callers must only early-exit streams
	// nothing else draws from (per-trial streams qualify).
	EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error
}

// ClassModel is a channel model whose link probabilities depend on the
// sensors' classes. A deployment threads the key scheme's per-sensor class
// labels to EmitClassEdges (through Emit), so the scheme and channel share
// one deployment-level class assignment (wsn.Config validates the pairing).
type ClassModel interface {
	Model
	// ClassCount returns the number of sensor classes the model expects.
	ClassCount() int
	// EmitClassEdges streams one channel draw on n nodes whose classes are
	// given by labels (one entry per node; nil means every node is class
	// 0), under the EmitEdges contract.
	EmitClassEdges(r *rng.Rand, n int, labels []uint8, yield func(u, v int32) bool) error
}

// Emit streams one channel draw on n nodes to yield: class-aware models
// receive the per-node class labels (nil means every node is class 0),
// every other model ignores them. It is the one place that decides which
// models see labels, so the CSR (Sample) and row (RowDraw, which draws
// every class-aware model through Emit) paths draw identically.
func Emit(m Model, r *rng.Rand, n int, labels []uint8, yield func(u, v int32) bool) error {
	if cm, ok := m.(ClassModel); ok {
		return cm.EmitClassEdges(r, n, labels, yield)
	}
	return m.EmitEdges(r, n, yield)
}

// RowMajor reports whether m's draws yield every on pair once as (u, v)
// with u < v and u nondecreasing across the draw. When a draw of such a
// model yields its first edge with some u, every node below u has seen all
// of its edges. OnOff (the triangle walk of randgraph.Rows.ErdosRenyi),
// AlwaysOn (the same walk at p = 1), Disk (the cell-grid walk runs over u
// ascending and yields only in-range v > u) and a single-class HeterOnOff
// (one triangle walk over all nodes) are row-major. A multi-class
// HeterOnOff walks its class-pair blocks one after another, so it is not.
func RowMajor(m Model) bool {
	switch m := m.(type) {
	case OnOff, AlwaysOn, Disk:
		return true
	case HeterOnOff:
		return len(m.P) == 1
	}
	return false
}

// RowDraw draws channel models row by row: a row is one node u and its
// channel neighbours, the edges (u, v) a draw yields consecutively. OnOff
// and AlwaysOn draw rows natively — each node's neighbours v > u in
// ascending order, the walk handing out whole rows. Every other model is
// drawn through Emit, its consecutive edges sharing u grouped into one
// row; the built-in walks already yield such runs (Disk per node,
// HeterOnOff per node within a class-pair block). A RowDraw keeps the
// buffers and skip kernel of its draws, so repeated draws allocate nothing
// in steady state. Not safe for concurrent use.
type RowDraw struct {
	rows randgraph.Rows
	src  rng.GeometricSource

	// The grouping adapter for edge-drawn models: the row being collected,
	// its node, the consumer and whether it stopped the draw, and the
	// persistent edge callback handed to Emit.
	row     []int32
	u       int32
	yield   func(u int32, vs []int32) bool
	stopped bool
	edge    func(u, v int32) bool
}

// Emit streams one draw of m on n nodes to yield row by row: concatenated,
// the rows are exactly the edges channel.Emit(m, r, n, labels, ·) yields,
// in the same order, and the draw consumes randomness exactly as Emit
// does. vs is valid only during the call and must not be modified; yield
// returning false stops the draw under the EmitEdges contract. Class
// labels reach class-aware models as in Emit.
func (d *RowDraw) Emit(m Model, r *rng.Rand, n int, labels []uint8, yield func(u int32, vs []int32) bool) error {
	switch m := m.(type) {
	case OnOff:
		if err := m.Validate(); err != nil {
			return err
		}
		d.src.Reset(r)
		if err := d.rows.ErdosRenyi(&d.src, n, m.P, yield); err != nil {
			return fmt.Errorf("channel: on/off: %w", err)
		}
		return nil
	case AlwaysOn:
		if n < 0 {
			return fmt.Errorf("channel: always-on: negative node count %d", n)
		}
		return d.rows.ErdosRenyi(nil, n, 1, yield)
	}
	if d.edge == nil {
		d.edge = d.groupEdge
	}
	d.row, d.yield, d.stopped = d.row[:0], yield, false
	err := Emit(m, r, n, labels, d.edge)
	if err == nil && !d.stopped && len(d.row) > 0 {
		yield(d.u, d.row)
	}
	d.yield = nil
	return err
}

// groupEdge collects the edges of an edge-drawn model into rows, passing
// the collected row on when an edge with another first endpoint arrives.
func (d *RowDraw) groupEdge(u, v int32) bool {
	if u != d.u && len(d.row) > 0 {
		if !d.yield(d.u, d.row) {
			d.stopped = true
			return false
		}
		d.row = d.row[:0]
	}
	d.u = u
	d.row = append(d.row, v)
	return true
}

// Sample draws one channel graph on n nodes: Emit collected into CSR by b.
// A nil b means a fresh builder; a reused builder keeps repeated draws
// allocation-free, and the returned graph then follows the builder's
// lifetime contract (valid until the second-next build).
func Sample(m Model, r *rng.Rand, n int, labels []uint8, b *graph.Builder) (*graph.Undirected, error) {
	if b == nil {
		b = graph.NewBuilder()
	}
	return b.Collect(n, func(yield func(u, v int32) bool) error {
		return Emit(m, r, n, labels, yield)
	})
}

// OnOff is the paper's on/off channel model: each channel is independently
// on with probability P (0 ≤ P ≤ 1). P = 0 is the degenerate all-off network
// (an empty channel graph), the well-defined limit of a vanishing disk
// radius; P = 1 is full visibility.
type OnOff struct {
	// P is the probability that a channel is on.
	P float64
}

var _ Model = OnOff{}

// Name implements Model.
func (m OnOff) Name() string { return fmt.Sprintf("on-off(p=%g)", m.P) }

// Validate implements Model: P must lie in [0, 1].
func (m OnOff) Validate() error {
	if math.IsNaN(m.P) || m.P < 0 || m.P > 1 {
		return fmt.Errorf("channel: on probability %v outside [0,1]", m.P)
	}
	return nil
}

// EmitEdges implements Model: one G(n, p) draw streamed with geometric
// skipping — the row draw of RowDraw, edge by edge.
func (m OnOff) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	var src rng.GeometricSource
	src.Reset(r)
	if err := randgraph.EmitErdosRenyi(&src, n, m.P, yield); err != nil {
		return fmt.Errorf("channel: on/off: %w", err)
	}
	return nil
}

// AlwaysOn is the full-visibility model: every pair of sensors has an active
// channel, so secure connectivity reduces to the key graph alone (the
// setting of the prior work the paper extends).
type AlwaysOn struct{}

var _ Model = AlwaysOn{}

// Name implements Model.
func (AlwaysOn) Name() string { return "always-on" }

// Validate implements Model: AlwaysOn has no parameters.
func (AlwaysOn) Validate() error { return nil }

// EmitEdges implements Model: every pair, no randomness — the G(n, 1)
// row draw, edge by edge.
func (AlwaysOn) EmitEdges(_ *rng.Rand, n int, yield func(u, v int32) bool) error {
	if n < 0 {
		return fmt.Errorf("channel: always-on: negative node count %d", n)
	}
	return randgraph.EmitErdosRenyi(nil, n, 1, yield)
}

// Disk is the disk model: sensors are placed uniformly at random on the unit
// square and can communicate within Euclidean distance Radius. With Torus
// set, distances wrap (no boundary effects) and the marginal channel-on
// probability of any pair is exactly π·Radius² for Radius ≤ ½ — the knob
// used to compare the disk model against on/off channels (experiment E8).
type Disk struct {
	// Radius is the communication range in [0, ∞).
	Radius float64
	// Torus selects wraparound distances.
	Torus bool
}

var _ Model = Disk{}

// Name implements Model.
func (m Disk) Name() string {
	if m.Torus {
		return fmt.Sprintf("disk-torus(r=%g)", m.Radius)
	}
	return fmt.Sprintf("disk(r=%g)", m.Radius)
}

// Validate implements Model: Radius must be finite and non-negative. A zero
// radius is well-defined (no sensor reaches any other: an empty channel
// graph), matching the P = 0 limit of EquivalentOnOff.
func (m Disk) Validate() error {
	if math.IsNaN(m.Radius) || math.IsInf(m.Radius, 0) || m.Radius < 0 {
		return fmt.Errorf("channel: disk radius %v must be finite and non-negative", m.Radius)
	}
	return nil
}

// geoScratchPool shares geometric-sampling buffers (positions, cell grid)
// across Disk.EmitEdges calls. Disk is a value-type model, so its scratch
// cannot live on the model itself; a pool keeps steady-state sampling
// allocation-free without coupling the model to one deployer.
var geoScratchPool = sync.Pool{New: func() any { return new(randgraph.GeoScratch) }}

// EmitEdges implements Model: the cell-grid walk passes in-range pairs
// straight to yield, with pooled position/grid buffers and no edge list.
func (m Disk) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	sc := geoScratchPool.Get().(*randgraph.GeoScratch)
	defer geoScratchPool.Put(sc)
	if err := sc.EmitGeometric(r, n, m.Radius, randgraph.GeometricOptions{Torus: m.Torus}, yield); err != nil {
		return fmt.Errorf("channel: disk: %w", err)
	}
	return nil
}

// EquivalentOnOff returns the on/off model whose channel-on probability
// matches the disk model's marginal pair probability on the torus — π·r²
// for r ≤ ½, the exact clipped-ball area beyond (theory.DiskOnProb owns the
// formula) — the comparison device of experiment E8. A zero radius maps to
// OnOff{P: 0}, the (valid) empty channel graph, so the equivalence holds at
// the degenerate end of a radius sweep too; an invalid radius maps to an
// OnOff model that fails Validate, mirroring the Disk model itself.
func (m Disk) EquivalentOnOff() OnOff {
	p, err := theory.DiskOnProb(m.Radius)
	if err != nil {
		return OnOff{P: math.NaN()}
	}
	return OnOff{P: p}
}
