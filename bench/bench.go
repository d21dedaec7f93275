// Package bench is the repository's end-to-end benchmark: four workloads
// that drive the exported API of the simulator, time what a user of it
// sees, check that the results are correct, and — in a separate traced run —
// attribute the time to the layers (rng, keys, channel, graph, graphalgo,
// wsn, montecarlo, experiment, sweepserve).
//
// A run executes one workload: it sets up several times (reporting the
// median as setup_s), then repeats the workload's round — a fixed amount of
// work, such as one Figure-1 sweep — until the measuring time has passed,
// and reports the median round and statistics of the operations inside
// the rounds (EndToEnd).
// Every input is generated from the seed. The command bench/cmd/wsnbench
// runs it; README.md lists the workloads and metrics.
package bench

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Workers is the goroutine budget of every workload: point shards, trial
// workers and plateau goroutines. It is fixed rather than taken from the
// machine so that the work done does not depend on where it runs.
const Workers = 2

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 3

// Workloads names the workloads in the order the full run executes them.
var Workloads = []string{"fig1", "plateau", "kconn", "sweepd"}

// MetricSpec names one reported metric and its unit.
type MetricSpec struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics every untraced run reports: the median set-up
// time, the median wall time of a round, the geometric mean and the 90th
// percentile of the operation latency, and the live heap after the first
// round. The geometric mean stands in for the median because the sweep
// workloads' operations are grid points whose costs cluster by parameter:
// the median of such a mix sits in a gap between clusters and jumps from
// run to run, while the geometric mean moves with a change to any cluster.
var EndToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_gmean_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"heap_mb", "MB"},
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run, as the last line of a run prints it:
// whether every correctness check passed, how many operations and checks
// were attempted and failed, and the metrics.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options configures one run.
type Options struct {
	// Workload is one of Workloads.
	Workload string
	// Seed generates every input of the run.
	Seed uint64
	// Seconds is how long the run repeats its round after setting up; at
	// least one round always runs (two on traced runs: one plain, one
	// traced).
	Seconds float64
	// Trace selects the traced run, which reports PerLayer metrics instead
	// of EndToEnd ones.
	Trace bool
	// Dir, when set, receives a traced run's spans.jsonl. Scratch files
	// (journals) always go to a temporary directory removed afterwards.
	Dir string
	// Scale sizes the workloads.
	Scale Scale
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// runner is the state one workload run accumulates.
type runner struct {
	Options
	ctx      context.Context
	dir      string // scratch files
	log      io.Writer
	tr       *tracer // nil on untraced runs
	deadline time.Time

	setup []float64 // seconds per set-up
	walls []float64 // seconds per untraced round
	ops   []float64 // milliseconds per operation of untraced rounds
	heap  []float64 // MB of live heap after the first untraced round

	// plainOps are the op times (ms) of a traced run's plain rounds, the
	// reference of trace.overhead_frac (traced ops are timed by spans).
	plainOps []float64
	// layer holds per-layer values a workload measures outside spans.
	layer map[string]float64

	attempted, failed int
}

// Run executes one workload and returns its result. A failed correctness
// check is not an error: it shows as Correct = false and a failed count. An
// error means the workload could not run at all.
func Run(ctx context.Context, opts Options) (Result, error) {
	work, ok := workloadFuncs[opts.Workload]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads)
	}
	r := &runner{Options: opts, ctx: ctx, log: opts.Log, layer: map[string]float64{}}
	if r.log == nil {
		r.log = io.Discard
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return Result{}, fmt.Errorf("bench: output directory: %w", err)
		}
	}
	dir, err := os.MkdirTemp("", "wsnbench-")
	if err != nil {
		return Result{}, fmt.Errorf("bench: scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if opts.Trace {
		r.tr = newTracer()
	}

	if err := work(r); err != nil {
		r.attempted++
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s: %v\n", opts.Workload, err)
	}
	res := Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if opts.Trace {
		res.Metrics = r.layerMetrics()
		if err := r.writeSpans(); err != nil {
			return res, err
		}
	} else {
		res.Metrics = r.endToEnd()
	}
	r.report(res)
	return res, nil
}

var workloadFuncs = map[string]func(*runner) error{
	"fig1":    runFig1,
	"plateau": runPlateau,
	"kconn":   runKConn,
	"sweepd":  runSweepd,
}

// measure starts the measuring time: rounds repeat until Seconds after this.
func (r *runner) measure() {
	r.deadline = time.Now().Add(time.Duration(r.Seconds * float64(time.Second)))
}

// more reports whether round i should run: always the first round (the
// first two on a traced run), then while measuring time remains.
func (r *runner) more(i int) bool {
	if r.ctx.Err() != nil {
		return false
	}
	if i < 1 || (r.tr != nil && i < 2) {
		return true
	}
	return time.Now().Before(r.deadline)
}

// traced reports whether round i is traced. A traced run alternates plain
// and traced rounds; each traced round reuses the seed of the plain round
// before it, so the two must produce identical results.
func (r *runner) traced(i int) bool { return r.tr != nil && i%2 == 1 }

// roundSeed derives the seed of round i from the run's seed.
func (r *runner) roundSeed(i int) uint64 {
	if r.tr != nil {
		i /= 2
	}
	return rng.StreamSeed(r.Seed, uint64(i))
}

// check counts one correctness check and reports it when it fails.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s: %s\n", r.Workload, fmt.Sprintf(format, args...))
	}
}

// op records the latency of one operation of a plain round.
func (r *runner) op(d time.Duration) {
	r.attempted++
	ms := d.Seconds() * 1e3
	if r.tr == nil {
		r.ops = append(r.ops, ms)
	} else {
		r.plainOps = append(r.plainOps, ms)
	}
}

// endToEnd computes the EndToEnd metrics of an untraced run.
func (r *runner) endToEnd() map[string]Metric {
	sorted := append([]float64(nil), r.ops...)
	sort.Float64s(sorted)
	vals := map[string]float64{
		"setup_s":     median(r.setup),
		"wall_s":      median(r.walls),
		"op_gmean_ms": gmean(r.ops),
		"op_p90_ms":   nearestRank(sorted, 90),
		"heap_mb":     median(r.heap),
	}
	out := map[string]Metric{}
	for _, m := range EndToEnd {
		out[m.Name] = Metric{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// report prints the human-readable summary of a run.
func (r *runner) report(res Result) {
	w := r.log
	fmt.Fprintf(w, "workload %s: seed %d, traced %t, %s\n", r.Workload, r.Seed, r.Trace, RunInfo())
	if r.Trace {
		r.printLayerTable()
	} else {
		samples := map[string][]float64{
			"setup_s": r.setup, "wall_s": r.walls, "op_gmean_ms": r.ops, "op_p90_ms": r.ops, "heap_mb": r.heap,
		}
		for _, m := range EndToEnd {
			line := fmt.Sprintf("  %-12s %12.4f %-3s", m.Name, res.Metrics[m.Name].Value, m.Unit)
			if s := samples[m.Name]; len(s) > 0 {
				line += fmt.Sprintf("  n=%d median=%.4f", len(s), median(s))
				if p, v, ok := tail(s); ok {
					line += fmt.Sprintf(" p%g=%.4f", p, v)
				}
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "  peak RSS (VmHWM) %.1f MB, not a gated metric: it moves with GC timing\n", peakRSSMB())
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %t\n", res.Attempted, res.Failed, res.Correct)
}

// RunInfo describes the machine and build a run executed on.
func RunInfo() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
// Each run is its own process, so the peak belongs to one workload.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var kb float64
			if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// median returns the middle value (the mean of the middle two for an even
// count), or NaN for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean returns the geometric mean of positive values.
func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// heapSample records the live heap after the first untraced round, outside
// its timing. Later rounds would also count the benchmark's own growing
// latency records. The second collection drops what the first moved to
// sync.Pool victim caches, so pooled buffers the workload no longer holds do
// not count.
func (r *runner) heapSample() {
	if r.tr == nil && len(r.heap) == 0 {
		runtime.GC()
		r.heap = append(r.heap, float64(heapAfterGC())/(1<<20))
	}
}

// heapAfterGC returns the live heap right after a collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// nearestRank returns the p-th percentile of sorted values by the
// nearest-rank rule.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// tail returns the highest of the usual percentiles with at least ten
// samples beyond it.
func tail(vals []float64) (p, v float64, ok bool) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, nearestRank(s, p), true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method).
func quartiles(vals []float64) (q1, q2, q3 float64, err error) {
	if len(vals) < 2 {
		return 0, 0, 0, errors.New("bench: quartiles need at least two values")
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}
