package channel

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// HeterOnOff is the heterogeneous on/off channel model of Eletreby and Yağan
// (arXiv:1908.09826): the channel between a class-i and a class-j sensor is
// on independently with probability P[i][j]. With one class it degenerates
// to the paper's uniform OnOff model; paired with a multi-class
// keys.Heterogeneous scheme it yields the heterogeneous random
// key graph ∩ heterogeneous Erdős–Rényi composite of that paper.
type HeterOnOff struct {
	// P is the symmetric class-pair on-probability matrix.
	P [][]float64
}

var (
	_ Model      = HeterOnOff{}
	_ ClassModel = HeterOnOff{}
)

// UniformHeterOnOff returns the r-class HeterOnOff whose every class pair is
// on with the same probability p — the uniform on/off channel written in
// class form, for pairing a heterogeneous scheme with the 1604.00460 model
// (heterogeneous keys, homogeneous channels).
func UniformHeterOnOff(classes int, p float64) HeterOnOff {
	m := make([][]float64, classes)
	for i := range m {
		m[i] = make([]float64, classes)
		for j := range m[i] {
			m[i][j] = p
		}
	}
	return HeterOnOff{P: m}
}

// Name implements Model.
func (m HeterOnOff) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heter-on-off(p=[")
	for i, row := range m.P {
		if i > 0 {
			b.WriteString("; ")
		}
		for j, p := range row {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%g", p)
		}
	}
	b.WriteString("])")
	return b.String()
}

// ClassCount implements ClassModel.
func (m HeterOnOff) ClassCount() int { return len(m.P) }

// maxClasses bounds the class count: labels travel as uint8 through
// assignments and channel models (keys.MaxClasses), and the bucketing
// scratch of EmitClassEdges is sized to it.
const maxClasses = 256

// Validate implements Model: the matrix must be non-empty, square,
// symmetric, with entries in [0, 1], and at most 256 classes (class labels
// are uint8).
func (m HeterOnOff) Validate() error {
	r := len(m.P)
	if r == 0 {
		return fmt.Errorf("channel: heterogeneous on/off needs at least one class")
	}
	if r > maxClasses {
		return fmt.Errorf("channel: %d classes exceed the %d-class limit of uint8 labels", r, maxClasses)
	}
	// Check every row length before touching m.P[j][i]: the symmetry check
	// reads across rows, so a ragged matrix must fail here, not panic there.
	for i, row := range m.P {
		if len(row) != r {
			return fmt.Errorf("channel: on-probability matrix row %d has %d entries, want %d", i, len(row), r)
		}
	}
	for i, row := range m.P {
		for j, p := range row {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("channel: on probability P[%d][%d]=%v outside [0,1]", i, j, p)
			}
			if m.P[j][i] != p {
				return fmt.Errorf("channel: on-probability matrix asymmetric at (%d,%d): %v vs %v", i, j, p, m.P[j][i])
			}
		}
	}
	return nil
}

// EmitEdges implements Model. Without class labels only the single-class
// instance is well-defined (it is OnOff); multi-class instances must be
// drawn through EmitClassEdges with a deployment's label assignment.
func (m HeterOnOff) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(m.P) > 1 {
		return fmt.Errorf("channel: heterogeneous on/off with %d classes needs per-sensor labels; deploy it with a class-aware scheme", len(m.P))
	}
	return OnOff{P: m.P[0][0]}.EmitEdges(r, n, yield)
}

// classScratchPool shares the class-bucketing array across EmitClassEdges
// calls; HeterOnOff is a value-type model, so like Disk's geometry scratch
// the buffer lives in a pool rather than on the model.
var classScratchPool = sync.Pool{New: func() any { return new([]int32) }}

// EmitClassEdges implements ClassModel: the channel graph is the union of
// one Erdős–Rényi block per class pair — within-class blocks G(n_i, P[i][i])
// and cross-class bipartite blocks with probability P[i][j] — streamed in
// fixed (i ≤ j) order, so the draw is deterministic in (r, labels). ONE
// skip kernel threads all blocks: block boundaries share buffered uniforms,
// so skip i consumes uniform i across the whole draw (the alignment the
// pinned topology fingerprints rely on). A false from yield stops the
// current block and skips all remaining blocks.
func (m HeterOnOff) EmitClassEdges(r *rng.Rand, n int, labels []uint8, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("channel: negative node count %d", n)
	}
	if labels != nil && len(labels) != n {
		return fmt.Errorf("channel: %d class labels for %d nodes", len(labels), n)
	}
	classes := len(m.P)
	buf := classScratchPool.Get().(*[]int32)
	defer classScratchPool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	flat := (*buf)[:n]
	var off [257]int32
	if err := bucketByClass(n, classes, labels, flat, &off); err != nil {
		return err
	}
	bucket := func(c int) []int32 { return flat[off[c]:off[c+1]] }
	stopped := false
	wrap := func(u, v int32) bool {
		if !yield(u, v) {
			stopped = true
			return false
		}
		return true
	}
	var src rng.GeometricSource
	src.Reset(r)
	for i := 0; i < classes && !stopped; i++ {
		if err := randgraph.EmitErdosRenyiSubset(&src, bucket(i), m.P[i][i], wrap); err != nil {
			return fmt.Errorf("channel: heterogeneous on/off: %w", err)
		}
		for j := i + 1; j < classes && !stopped; j++ {
			if err := randgraph.EmitErdosRenyiBipartite(&src, bucket(i), bucket(j), m.P[i][j], wrap); err != nil {
				return fmt.Errorf("channel: heterogeneous on/off: %w", err)
			}
		}
	}
	return nil
}

// bucketByClass groups the node IDs 0..n-1 by class into flat (len n) with a
// counting sort — ascending node order within each class — and writes the
// class offsets to off: class c occupies flat[off[c]:off[c+1]]. nil labels
// put every node in class 0.
func bucketByClass(n, classes int, labels []uint8, flat []int32, off *[257]int32) error {
	var cnt [257]int32
	for v := 0; v < n; v++ {
		c := 0
		if labels != nil {
			c = int(labels[v])
		}
		if c >= classes {
			return fmt.Errorf("channel: node %d has class %d, model has %d classes", v, c, classes)
		}
		cnt[c+1]++
	}
	for c := 0; c < classes; c++ {
		cnt[c+1] += cnt[c]
	}
	*off = cnt // off[c]..off[c+1] delimit class c after the fill
	cursor := [256]int32{}
	for v := 0; v < n; v++ {
		c := 0
		if labels != nil {
			c = int(labels[v])
		}
		flat[off[c]+cursor[c]] = int32(v)
		cursor[c]++
	}
	return nil
}
