package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// exported function it calls. Spans of one operation share a trace id
// (workload/round/point, or workload/job). A replay span was measured on a
// re-run of its parent's work rather than inside the parent's interval: its
// duration is attributed to the parent instead of covering part of it.
type Span struct {
	Trace  string           `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Replay bool             `json:"replay,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *Span) dur() int64 { return s.End - s.Start }

// layer is the span name up to its first dot: the module it times.
func (s *Span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use. A nil tracer records nothing, so code shared by plain and
// traced rounds can call it unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// start opens a span; finish records it.
func (t *tracer) start(trace, name string, parent int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{Trace: trace, ID: t.nextID.Add(1), Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) finish(s Span) {
	s.End = t.now()
	t.record(s)
}

// interval records a span whose start and end (tracer.now values) were
// taken by the caller.
func (t *tracer) interval(trace, name string, parent, start, end int64) {
	if t == nil {
		return
	}
	t.record(Span{Trace: trace, ID: t.nextID.Add(1), Parent: parent, Name: name, Start: start, End: end})
}

func (t *tracer) record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its interval children cover, minus the whole duration of its
// replay children.
func selfTimes(spans []Span) map[int64]int64 {
	byID := make(map[int64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	children := map[int64][]*Span{}
	for i := range spans {
		if _, ok := byID[spans[i].Parent]; ok {
			children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
		}
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var replayed int64
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			if c.Replay {
				replayed += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[s.ID] = s.dur() - replayed - covered(ivs)
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
			end = iv[1]
		}
	}
	return total
}

// opNames names the span that is one operation of each workload; layer
// shares are shares of the operations' time.
var opNames = map[string]string{
	"fig1":    "experiment.point",
	"plateau": "wsn.trial",
	"kconn":   "experiment.point",
	"sweepd":  "sweepserve.job",
}

// replayName is the span covering a replay: time the traced run spends
// re-running a trial stage by stage, excluded from the operation's time.
const replayName = "trace.replay"

// opTimes returns the duration of each of the workload's operation spans,
// net of the replays run inside them.
func opTimes(spans []Span, opName string) []int64 {
	index := map[int64]int{}
	var net []int64
	for i := range spans {
		if spans[i].Name == opName {
			index[spans[i].ID] = len(net)
			net = append(net, spans[i].dur())
		}
	}
	for i := range spans {
		if j, ok := index[spans[i].Parent]; ok && spans[i].Name == replayName {
			net[j] -= spans[i].dur()
		}
	}
	return net
}

// subtrees returns the spans that are, or descend from, a span named root.
func subtrees(spans []Span, root string) []Span {
	byID := make(map[int64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var out []Span
	for i := range spans {
		for s := &spans[i]; s != nil; s = byID[s.Parent] {
			if s.Name == root {
				out = append(out, spans[i])
				break
			}
		}
	}
	return out
}

// printLayerTable prints self time per span name and per layer for one
// operation of the workload and, unless that is the trial itself, for one
// streaming trial: the stages replayed from it plus its residual.
func (r *runner) printLayerTable() {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	opName := opNames[r.Workload]
	r.printTable(subtrees(spans, opName), self, opName)
	if opName != "wsn.trial" {
		r.printTable(subtrees(spans, "wsn.trial"), self, "wsn.trial")
	}
	metrics := r.layerMetrics()
	for _, m := range PerLayer {
		fmt.Fprintf(r.log, "  %-38s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
}

// printTable prints the self times of spans (the subtrees of unit spans)
// per unit, with each one's share of the units' time net of replay.
func (r *runner) printTable(spans []Span, self map[int64]int64, unit string) {
	units := opTimes(spans, unit)
	var total int64
	for _, ns := range units {
		total += ns
	}
	if len(units) == 0 || total <= 0 {
		fmt.Fprintf(r.log, "  no %s spans recorded\n", unit)
		return
	}
	byName, byLayer := map[string]int64{}, map[string]int64{}
	count := map[string]int{}
	var replay int64
	for i := range spans {
		s := &spans[i]
		if s.Name == replayName {
			replay += s.dur()
			continue
		}
		byName[s.Name] += self[s.ID]
		byLayer[s.layer()] += self[s.ID]
		count[s.Name]++
	}
	perUnit := func(ns int64) float64 { return float64(ns) / 1e6 / float64(len(units)) }
	share := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	fmt.Fprintf(r.log, "  self time per %s: %d of them, %.4f ms each", unit, len(units), perUnit(total))
	if replay > 0 {
		fmt.Fprintf(r.log, " net of %.4f ms of replay", perUnit(replay))
	}
	fmt.Fprintln(r.log)
	fmt.Fprintf(r.log, "    %-24s %8s %12s %8s\n", "span", "count", "self_ms", "share")
	for _, name := range sortedKeys(byName) {
		fmt.Fprintf(r.log, "    %-24s %8d %12.4f %7.2f%%\n", name, count[name], perUnit(byName[name]), share(byName[name]))
	}
	fmt.Fprintf(r.log, "    %-24s %8s %12s %8s\n", "layer", "", "self_ms", "share")
	for _, layer := range sortedKeys(byLayer) {
		fmt.Fprintf(r.log, "    %-24s %8s %12.4f %7.2f%%\n", layer, "", perUnit(byLayer[layer]), share(byLayer[layer]))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSpans writes the traced run's spans as JSON lines to Dir/spans.jsonl
// when the run was given a directory to keep.
func (r *runner) writeSpans() error {
	if r.Dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.Dir, "spans.jsonl"))
	if err != nil {
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return f.Close()
}

// commit returns the VCS revision the benchmark was built from: the one
// stamped into the binary, else the one git reports for the repository the
// command runs in (its root or bench/), else "unknown".
var commit = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			continue
		}
		if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
})
