package channel

import (
	"math"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestOnOffSample(t *testing.T) {
	m := OnOff{P: 0.3}
	g, err := Sample(m, rng.New(1), 100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Errorf("N = %d", g.N())
	}
	want := 0.3 * 100 * 99 / 2
	if math.Abs(float64(g.M())-want) > 4*math.Sqrt(want) {
		t.Errorf("M = %d, want ~%v", g.M(), want)
	}
	if !strings.Contains(m.Name(), "0.3") {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestOnOffValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if err := (OnOff{P: p}).Validate(); err == nil {
			t.Errorf("p=%v: Validate: want error", p)
		}
		if _, err := Sample(OnOff{P: p}, rng.New(1), 10, nil, nil); err == nil {
			t.Errorf("p=%v: Sample: want error", p)
		}
	}
	// p = 0 is the degenerate all-off network: valid, empty channel graph.
	g, err := Sample(OnOff{P: 0}, rng.New(1), 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.M() != 0 {
		t.Errorf("p=0 graph: N=%d M=%d, want N=10 M=0", g.N(), g.M())
	}
	// p = 1 is the full-visibility special case of on/off and is valid.
	g, err = Sample(OnOff{P: 1}, rng.New(1), 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 45 {
		t.Errorf("p=1 edges = %d, want 45", g.M())
	}
}

func TestDiskValidation(t *testing.T) {
	for _, r := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if err := (Disk{Radius: r}).Validate(); err == nil {
			t.Errorf("radius=%v: Validate: want error", r)
		}
		if _, err := Sample(Disk{Radius: r}, rng.New(1), 10, nil, nil); err == nil {
			t.Errorf("radius=%v: Sample: want error", r)
		}
	}
	for _, m := range []Model{OnOff{P: 0.5}, AlwaysOn{}, Disk{Radius: 0.2}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", m.Name(), err)
		}
	}
}

// TestDiskZeroRadius pins the degenerate-radius contract: a zero radius is a
// valid empty channel graph, and its EquivalentOnOff (P = 0) samples an
// equally valid empty graph instead of failing at Sample time.
func TestDiskZeroRadius(t *testing.T) {
	m := Disk{Radius: 0, Torus: true}
	if err := m.Validate(); err != nil {
		t.Fatalf("zero radius Validate: %v", err)
	}
	g, err := Sample(m, rng.New(4), 40, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 40 || g.M() != 0 {
		t.Errorf("zero-radius graph: N=%d M=%d, want N=40 M=0", g.N(), g.M())
	}
	eq := m.EquivalentOnOff()
	if eq.P != 0 {
		t.Fatalf("EquivalentOnOff P = %v, want 0", eq.P)
	}
	if err := eq.Validate(); err != nil {
		t.Fatalf("EquivalentOnOff Validate: %v", err)
	}
	g, err = Sample(eq, rng.New(4), 40, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 40 || g.M() != 0 {
		t.Errorf("equivalent on/off graph: N=%d M=%d, want N=40 M=0", g.N(), g.M())
	}
}

func TestAlwaysOn(t *testing.T) {
	m := AlwaysOn{}
	g, err := Sample(m, rng.New(1), 30, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 30*29/2 {
		t.Errorf("M = %d, want %d", g.M(), 30*29/2)
	}
	if m.Name() != "always-on" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestDiskSample(t *testing.T) {
	m := Disk{Radius: 0.2, Torus: true}
	g, err := Sample(m, rng.New(2), 200, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Torus pair probability is exactly π r².
	want := math.Pi * 0.04 * 200 * 199 / 2
	if math.Abs(float64(g.M())-want) > 6*math.Sqrt(want)+0.05*want {
		t.Errorf("M = %d, want ~%v", g.M(), want)
	}
	if !strings.Contains(m.Name(), "torus") {
		t.Errorf("Name = %q", m.Name())
	}
	if strings.Contains((Disk{Radius: 0.1}).Name(), "torus") {
		t.Error("non-torus Name mentions torus")
	}
	if _, err := Sample(Disk{Radius: -1}, rng.New(1), 10, nil, nil); err == nil {
		t.Error("negative radius: want error")
	}
}

// TestDiskSamplePositions pins a Disk draw to the positions it is drawn
// from: at the same seed it is the graph randgraph.Geometric builds, and
// every edge joins two in-square points within the radius.
func TestDiskSamplePositions(t *testing.T) {
	m := Disk{Radius: 0.15}
	g, err := Sample(m, rng.New(3), 50, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, pts, err := randgraph.Geometric(rng.New(3), 50, m.Radius, randgraph.GeometricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 || !sameGraph(g, want) {
		t.Fatalf("disk draw differs from the geometric graph on its positions (%d points)", len(pts))
	}
	for i, p := range pts {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Errorf("point %d = %+v outside unit square", i, p)
		}
	}
	g.ForEachEdge(func(u, v int32) bool {
		if d := math.Hypot(pts[u].X-pts[v].X, pts[u].Y-pts[v].Y); d > m.Radius {
			t.Errorf("edge (%d,%d) spans %v > radius", u, v, d)
		}
		return true
	})
}

// TestSampleLifetime checks the double-buffer contract end to end: a
// channel graph sampled through a builder must survive the next draw
// through the same builder.
func TestSampleLifetime(t *testing.T) {
	m := OnOff{P: 0.3}
	b := graph.NewBuilder()
	g1, err := Sample(m, rng.New(1), 50, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sample(m, rng.New(1), 50, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sample(m, rng.New(2), 50, nil, b); err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g1, want) {
		t.Error("channel graph corrupted by the next draw through the same builder")
	}
}

func TestEquivalentOnOff(t *testing.T) {
	m := Disk{Radius: 0.2, Torus: true}
	eq := m.EquivalentOnOff()
	if math.Abs(eq.P-math.Pi*0.04) > 1e-12 {
		t.Errorf("equivalent p = %v, want π·0.04", eq.P)
	}
	// Clamped for huge radii.
	if got := (Disk{Radius: 10}).EquivalentOnOff().P; got != 1 {
		t.Errorf("clamped p = %v, want 1", got)
	}
}
