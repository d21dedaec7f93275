package bench

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// tiny runs every workload's code in well under a second each.
var tiny = Scale{
	Fig1:    Fig1Scale{Sensors: 60, Pool: 600, Trials: 2, Ks: []int{10, 25, 40}, Qs: []int{2}, Ps: []float64{1, 0.5}},
	Plateau: PlateauScale{Sensors: 2000, Pool: 512, Ring: 32, Q: 2, Trials: 2, MinDegree: 2, P: plateauP(2000)},
	KConn: KConnScale{Sensors: 60, Pool: 600, Q: 2, Trials: 2, P: 0.5, Ks: []int{10, 25, 40},
		Levels: []int{1, 2, 3}},
	Sweepd: SweepdScale{Sensors: 30, Pool: 150, Trials: 4, Ks: []int{6, 8, 10, 12, 14},
		Ps: []float64{0.5, 0.8, 1}, ColdJobs: 16, WarmPerRound: 20},
}

func loadBenchmark(t *testing.T) *Benchmark {
	t.Helper()
	bm, err := LoadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestWorkloadsMatchBenchmark runs every workload, plain and traced, at the
// tiny scale and checks that each passes its gates and reports exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestWorkloadsMatchBenchmark(t *testing.T) {
	bm := loadBenchmark(t)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, Workloads)
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(context.Background(), Options{Workload: w, Seed: 7, Trace: trace, Scale: tiny})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			if got, exp := sortedKeys(res.Metrics), declared(want); !slices.Equal(got, exp) {
				t.Errorf("%s trace=%t reports %v, BENCHMARK.json declares %v", w, trace, got, exp)
			}
			for _, m := range want {
				if got := res.Metrics[m.Name]; got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%t: %s = %v %s, want a number in %s", w, trace, m.Name, got.Value, got.Unit, m.Unit)
				}
			}
		}
	}
}

func declared(ms []BoundedMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// newTestRunner returns a runner whose checks can be inspected.
func newTestRunner() (*runner, *strings.Builder) {
	var log strings.Builder
	return &runner{Options: Options{Workload: "test"}, ctx: context.Background(), log: &log}, &log
}

// TestGatesCatchPerturbedResults perturbs results the gates see and checks
// that each gate fails.
func TestGatesCatchPerturbedResults(t *testing.T) {
	sc := tiny.Fig1
	cfg := experiment.SweepConfig{Trials: sc.Trials, Workers: Workers, Seed: 3}
	build := func(pt experiment.GridPoint) (wsn.Config, error) {
		sd, err := newStreamDeploy(sc.Sensors, sc.Pool, pt.K, pt.Q, pt.P, 0)
		return sd.config(), err
	}
	grid := experiment.Grid{Ks: sc.Ks, Qs: sc.Qs, Ps: sc.Ps}
	results, err := experiment.SweepConnectivity(context.Background(), grid, cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	csr := func(pt experiment.GridPoint) (wsn.Config, int, error) {
		c, err := build(pt)
		return c, 1, err
	}

	t.Run("csr", func(t *testing.T) {
		r, _ := newTestRunner()
		if err := r.csrCheck(results, 1, cfg, csr); err != nil || r.failed != 0 {
			t.Fatalf("unperturbed results: err %v, %d failed", err, r.failed)
		}
		bad := slices.Clone(results)
		bad[len(bad)-1].Value.Successes ^= 1
		r, log := newTestRunner()
		if err := r.csrCheck(bad, 1, cfg, csr); err != nil || r.failed != 1 {
			t.Fatalf("perturbed result: err %v, %d failed; log:\n%s", err, r.failed, log)
		}
	})

	t.Run("rise", func(t *testing.T) {
		r, _ := newTestRunner()
		curve := func(pt experiment.GridPoint) string { return "c" }
		rising := []experiment.ProportionResult{
			{Point: experiment.GridPoint{K: 10}, Value: stats.Proportion{Successes: 0, Trials: 2}},
			{Point: experiment.GridPoint{K: 40}, Value: stats.Proportion{Successes: 2, Trials: 2}},
		}
		r.checkRise([][]experiment.ProportionResult{rising}, []int{10, 40}, curve)
		flat := slices.Clone(rising)
		flat[1].Value.Successes = 0
		r.checkRise([][]experiment.ProportionResult{flat}, []int{10, 40}, curve)
		falling := slices.Clone(rising)
		falling[0].Value.Successes, falling[1].Value.Successes = 2, 1
		r.checkRise([][]experiment.ProportionResult{falling}, []int{10, 40}, curve)
		if r.attempted != 6 || r.failed != 3 {
			t.Fatalf("attempted %d, failed %d; want the rising curve to pass, the flat one to fail the "+
				"family check, the falling one both", r.attempted, r.failed)
		}
	})

	t.Run("replay", func(t *testing.T) {
		sd, err := newStreamDeploy(sc.Sensors, sc.Pool, 40, 2, 0.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := wsn.NewDeployer(sd.config())
		if err != nil {
			t.Fatal(err)
		}
		for _, perturb := range []bool{false, true} {
			var r0 rng.Rand
			r0.Reseed(11)
			_, err := tracedTrial(newTracer(), "t", 0, sd, r0, func() (wsn.DegreeStats, error) {
				st, err := d.DeployDegreeStats(11, sd.degK)
				if perturb {
					st.Giant--
				}
				return st, err
			})
			if (err != nil) != perturb {
				t.Errorf("perturbed=%t: replay error %v", perturb, err)
			}
		}
	})
}

// TestSelfTimes checks self time: interval children subtract the part of
// the parent they cover (once, however they overlap), replay children their
// whole duration.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "experiment.point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wsn.trial", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "experiment.journal", Start: 40, End: 60},
		{ID: 4, Parent: 2, Name: "keys.intersect", Start: 200, End: 230, Replay: true},
		{ID: 5, Parent: 1, Name: replayName, Start: 60, End: 90},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 80, 2: 40 - 30, 3: 20, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if net := opTimes(spans, "experiment.point"); len(net) != 1 || net[0] != 70 {
		t.Errorf("op time net of replay = %v, want [70]", net)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, err := quartiles(tc.vals)
		if err != nil || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v %v %v", tc.vals, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestCompareVerdicts checks the four verdicts of the comparison rule.
func TestCompareVerdicts(t *testing.T) {
	lower := BoundedMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    BoundedMetric
		want string
	}{
		{"faster", parent, scaled(0.8), lower, "better"},
		{"same", parent, scaled(1.02), lower, "unchanged"},
		{"slower", parent, scaled(1.2), lower, "worse"},
		{"noisy", []float64{50, 150, 60, 140, 100, 90, 110, 55, 145, 100}, parent, lower, "unresolved"},
		{"higher is better", parent, scaled(0.8), BoundedMetric{Better: "higher", Bound: 0.1}, "worse"},
	} {
		if _, got := compareMetric(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
