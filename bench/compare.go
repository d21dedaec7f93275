package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Record is what a run given an output directory writes to result.json:
// the result plus what it ran and where.
type Record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Info     string  `json:"info"`
	Result
}

// WriteRecord writes rec to dir/result.json.
func WriteRecord(dir string, rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing result: %w", err)
	}
	return nil
}

// Benchmark is the part of BENCHMARK.json the comparison and the tests use.
type Benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []BoundedMetric `json:"end_to_end"`
	PerLayer []BoundedMetric `json:"per_layer"`
}

// BoundedMetric is one metric entry of BENCHMARK.json.
type BoundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm Benchmark
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &bm, nil
}

// loadRecords reads every untraced result.json under dir, keyed by
// workload and seed.
func loadRecords(dir string) (map[string]map[uint64]Record, error) {
	out := map[string]map[uint64]Record{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
		if rec.Trace {
			return nil
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[uint64]Record{}
		}
		out[rec.Workload][rec.Seed] = rec
		return nil
	})
	return out, err
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict struct {
	Workload, Metric string
	// A and B are the per-run values of the parent and the change, paired
	// by seed.
	A, B []float64
	// Won is the share of pairs the change wins, ties counting for neither.
	Won     float64
	Verdict string
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// compareMetric applies the rule of the choosing-metrics guide (§6, §8):
// better when, over at least minPairs pairs, the change wins nine tenths
// of them and the medians differ by more than the parent's quartile spread;
// unresolved when that spread is wider than the bound, unless every run of
// the change beats every run of the parent; worse when the change's median
// is worse than the parent's by more than the bound; unchanged otherwise.
func compareMetric(a, b []float64, m BoundedMetric) (won float64, verdict string) {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	won = float64(wins) / float64(len(a))
	q1, medA, q3, err := quartiles(a)
	if err != nil {
		return won, "unresolved"
	}
	medB := median(b)
	worse := (medB - medA) / medA
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case len(a) >= minPairs && won >= 0.9 && better(medB, medA) && math.Abs(medB-medA) > q3-q1:
		return won, "better"
	case (q3-q1)/medA > m.Bound && !allBetter:
		return won, "unresolved"
	case worse > m.Bound:
		return won, "worse"
	}
	return won, "unchanged"
}

// Compare pairs the untraced runs under dirA (the parent) and dirB (the
// change) by workload and seed, and judges every end-to-end metric of
// BENCHMARK.json by its bound. It prints one row per workload and metric
// and returns the verdicts.
func Compare(dirA, dirB string, bm *Benchmark, w io.Writer) ([]Verdict, error) {
	recA, err := loadRecords(dirA)
	if err != nil {
		return nil, err
	}
	recB, err := loadRecords(dirB)
	if err != nil {
		return nil, err
	}
	var out []Verdict
	fmt.Fprintf(w, "%-8s %-12s %5s %30s %30s %8s %6s  %s\n",
		"workload", "metric", "pairs", "A median [q1, q3]", "B median [q1, q3]", "change", "won", "verdict")
	for _, wl := range sortedKeys(recA) {
		var seeds []uint64
		for s := range recA[wl] {
			if _, ok := recB[wl][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		if len(seeds) == 0 {
			continue
		}
		for _, m := range bm.EndToEnd {
			v := Verdict{Workload: wl, Metric: m.Name}
			for _, s := range seeds {
				v.A = append(v.A, recA[wl][s].Metrics[m.Name].Value)
				v.B = append(v.B, recB[wl][s].Metrics[m.Name].Value)
			}
			v.Won, v.Verdict = compareMetric(v.A, v.B, m)
			out = append(out, v)
			fmt.Fprintf(w, "%-8s %-12s %5d %30s %30s %+7.2f%% %5.0f%%  %s\n", wl, m.Name, len(seeds),
				spread(v.A), spread(v.B), 100*(median(v.B)/median(v.A)-1), 100*v.Won, v.Verdict)
		}
	}
	return out, nil
}

func spread(vals []float64) string {
	q1, q2, q3, err := quartiles(vals)
	if err != nil {
		return fmt.Sprintf("%.4g", median(vals))
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
