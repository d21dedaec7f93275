package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

var journalxGrid = Grid{Ks: []int{10, 20}, Qs: []int{1}, Ps: []float64{0.25, 0.75}}

func journalxTrial(pt GridPoint) (montecarlo.Trial, error) {
	return func(trial int, r *rng.Rand) (bool, error) {
		return r.Float64() < pt.P, nil
	}, nil
}

func journalxSample(pt GridPoint) (montecarlo.Sample, error) {
	return func(trial int, r *rng.Rand) (float64, error) {
		return r.Float64() * pt.P, nil
	}, nil
}

// TestResumeRejectsKindMismatchUnderReusedLabel is the label-collision
// regression test: a journal section written by a proportion sweep under
// label L must not be silently skipped when a MEAN sweep resumes under the
// same label L — the label was reused across sweep kinds, which is a caller
// bug (the measurement changed but the label did not), and quietly
// recomputing everything defeats the label's whole purpose. The loader
// fails loudly instead, naming both kinds.
func TestResumeRejectsKindMismatchUnderReusedLabel(t *testing.T) {
	cfg := SweepConfig{Trials: 6, Seed: 3, JournalLabel: "shared label"}
	var journal bytes.Buffer
	ckCfg := cfg
	ckCfg.Checkpoint = &journal
	if _, err := SweepProportion(context.Background(), journalxGrid, ckCfg, journalxTrial); err != nil {
		t.Fatalf("checkpointed proportion sweep failed: %v", err)
	}

	meanCfg := cfg
	meanCfg.Resume = bytes.NewReader(journal.Bytes())
	_, err := SweepMean(context.Background(), journalxGrid, meanCfg, journalxSample)
	if err == nil {
		t.Fatal("mean sweep resumed from a proportion journal under the same label without error")
	}
	for _, want := range []string{"shared label", KindProportion, KindMean, "reused label"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("label-collision error %q does not mention %q", err, want)
		}
	}

	// A different label with a different kind is the legitimate
	// multi-section case and must still skip cleanly: the mean sweep runs in
	// full against a journal holding only a foreign proportion section —
	// provided its own section is also present.
	otherCfg := cfg
	otherCfg.JournalLabel = "other label"
	otherCfg.Checkpoint = &journal
	if _, err := SweepMean(context.Background(), journalxGrid, otherCfg, journalxSample); err != nil {
		t.Fatalf("mean sweep with its own label failed: %v", err)
	}
	resumed := cfg
	resumed.JournalLabel = "other label"
	resumed.Resume = bytes.NewReader(journal.Bytes())
	if _, err := SweepMean(context.Background(), journalxGrid, resumed, journalxSample); err != nil {
		t.Fatalf("multi-kind journal with distinct labels rejected: %v", err)
	}
}

// TestJournalRecordRoundTrip pins the exported marshal/parse pair against
// the lines the checkpoint writer itself produces: every line of a real
// journal parses through ParseJournalRecord, and re-marshalling the parsed
// records reproduces the original bytes.
func TestJournalRecordRoundTrip(t *testing.T) {
	cfg := SweepConfig{Trials: 5, Seed: 9, JournalLabel: "roundtrip"}
	var journal bytes.Buffer
	ckCfg := cfg
	ckCfg.Checkpoint = &journal
	if _, err := SweepProportion(context.Background(), journalxGrid, ckCfg, journalxTrial); err != nil {
		t.Fatalf("checkpointed sweep failed: %v", err)
	}

	lines := bytes.Split(bytes.TrimSuffix(journal.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 1+journalxGrid.Len() {
		t.Fatalf("journal has %d lines, want %d", len(lines), 1+journalxGrid.Len())
	}
	headers, points := 0, 0
	for i, line := range lines {
		h, p, err := ParseJournalRecord(line)
		if err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		switch {
		case h != nil:
			headers++
			if h.Kind != KindProportion || h.Label != "roundtrip" || h.Trials != 5 || h.Seed != 9 || h.Code != CodeVersion {
				t.Errorf("header fields wrong: %+v", h)
			}
			wantFP, wantSpec := cfg.JournalFingerprint(KindProportion, journalxGrid)
			if h.Fingerprint != wantFP || h.Spec != wantSpec {
				t.Errorf("header fingerprint/spec do not match JournalFingerprint")
			}
			re, err := MarshalJournalHeader(*h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, append(line, '\n')) {
				t.Errorf("header re-marshal differs:\n got %s\nwant %s", re, line)
			}
		case p != nil:
			points++
			if want := cfg.PointSeed(GridPoint{K: p.K, Q: p.Q, P: p.P, X: p.X}); p.Seed != want {
				t.Errorf("point seed %d, want %d", p.Seed, want)
			}
			re, err := MarshalJournalPoint(*p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, append(line, '\n')) {
				t.Errorf("point re-marshal differs:\n got %s\nwant %s", re, line)
			}
		}
	}
	if headers != 1 || points != journalxGrid.Len() {
		t.Fatalf("parsed %d headers and %d points, want 1 and %d", headers, points, journalxGrid.Len())
	}

	// A stream reassembled from the parsed records is a valid Resume source:
	// the sweep restores every point and recomputes none.
	var synthesized bytes.Buffer
	for _, line := range lines {
		h, p, _ := ParseJournalRecord(line)
		var out []byte
		var err error
		if h != nil {
			out, err = MarshalJournalHeader(*h)
		} else {
			out, err = MarshalJournalPoint(*p)
		}
		if err != nil {
			t.Fatal(err)
		}
		synthesized.Write(out)
	}
	clean, err := SweepProportion(context.Background(), journalxGrid, cfg, journalxTrial)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := cfg
	resumeCfg.Resume = &synthesized
	builds := 0
	got, err := SweepProportion(context.Background(), journalxGrid, resumeCfg,
		func(pt GridPoint) (montecarlo.Trial, error) {
			builds++
			return journalxTrial(pt)
		})
	if err != nil {
		t.Fatalf("resume from synthesized journal failed: %v", err)
	}
	if builds != 0 {
		t.Errorf("synthesized resume rebuilt %d points, want 0", builds)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Error("synthesized resume differs from clean run")
	}
}

// TestPointDoneHook checks the progress hook's contract: one callback per
// grid point, fromCache=false on fresh computation, fromCache=true on
// journal restore, and concurrency-safe invocation under point sharding.
func TestPointDoneHook(t *testing.T) {
	for _, pointWorkers := range []int{0, 3} {
		var (
			mu     sync.Mutex
			fresh  int
			cached int
			seen   = map[pointKey]int{}
		)
		cfg := SweepConfig{Trials: 4, Seed: 7, PointWorkers: pointWorkers}
		cfg.PointDone = func(pt GridPoint, fromCache bool) {
			mu.Lock()
			defer mu.Unlock()
			if fromCache {
				cached++
			} else {
				fresh++
			}
			seen[keyOf(pt)]++
		}
		var journal bytes.Buffer
		ckCfg := cfg
		ckCfg.Checkpoint = &journal
		if _, err := SweepProportion(context.Background(), journalxGrid, ckCfg, journalxTrial); err != nil {
			t.Fatalf("PointWorkers=%d: sweep failed: %v", pointWorkers, err)
		}
		if fresh != journalxGrid.Len() || cached != 0 {
			t.Errorf("PointWorkers=%d: fresh=%d cached=%d, want %d/0", pointWorkers, fresh, cached, journalxGrid.Len())
		}

		resumeCfg := cfg
		resumeCfg.Resume = bytes.NewReader(journal.Bytes())
		fresh, cached = 0, 0
		if _, err := SweepProportion(context.Background(), journalxGrid, resumeCfg, journalxTrial); err != nil {
			t.Fatalf("PointWorkers=%d: resume failed: %v", pointWorkers, err)
		}
		if fresh != 0 || cached != journalxGrid.Len() {
			t.Errorf("PointWorkers=%d: resumed fresh=%d cached=%d, want 0/%d", pointWorkers, fresh, cached, journalxGrid.Len())
		}
		for key, n := range seen {
			if n != 2 { // once fresh, once cached
				t.Errorf("PointWorkers=%d: point %+v reported %d times, want 2", pointWorkers, key, n)
			}
		}
	}
}

// bothRecord is a journal line holding a header and a point at once. Such a
// line used to parse as a header, silently dropping its point.
const bothRecord = `{"header":{"fingerprint":"x"},"point":{"k":3}}`

// TestParseJournalRecordRejectsHeaderAndPoint pins that ParseJournalRecord
// refuses a line holding both records instead of returning its header.
func TestParseJournalRecordRejectsHeaderAndPoint(t *testing.T) {
	h, p, err := ParseJournalRecord([]byte(bothRecord))
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("ParseJournalRecord(%s) = %v, %v, %v; want an error saying it holds both", bothRecord, h, p, err)
	}
	if h != nil || p != nil {
		t.Errorf("ParseJournalRecord(%s) returned a record alongside its error", bothRecord)
	}
}

// TestResumeRejectsHeaderAndPoint pins the same rule in the resume loop: a
// journal with a both-record anywhere — mid-file or as its final line —
// fails the resume rather than resuming from its header.
func TestResumeRejectsHeaderAndPoint(t *testing.T) {
	cfg := SweepConfig{Trials: 4, Seed: 5, JournalLabel: "both"}
	var journal bytes.Buffer
	ckCfg := cfg
	ckCfg.Checkpoint = &journal
	if _, err := SweepProportion(context.Background(), journalxGrid, ckCfg, journalxTrial); err != nil {
		t.Fatal(err)
	}
	header, points, _ := bytes.Cut(journal.Bytes(), []byte("\n"))
	for name, data := range map[string][]byte{
		"mid-file":   bytes.Join([][]byte{header, []byte(bothRecord), points}, []byte("\n")),
		"final line": bytes.Join([][]byte{journal.Bytes(), []byte(bothRecord)}, nil),
	} {
		resumeCfg := cfg
		resumeCfg.Resume = bytes.NewReader(data)
		_, err := SweepProportion(context.Background(), journalxGrid, resumeCfg, journalxTrial)
		if err == nil || !strings.Contains(err.Error(), "both") {
			t.Errorf("%s: resume error %v, want one saying the line holds both", name, err)
		}
	}
}

// FuzzParseJournalRecord feeds arbitrary lines to ParseJournalRecord: it
// must never panic, on success exactly one return is non-nil, and
// re-marshalling the record then parsing it again gives an equal record.
func FuzzParseJournalRecord(f *testing.F) {
	h, err := MarshalJournalHeader(JournalHeaderInfo{
		Fingerprint: "fp", Spec: "spec <&>", Code: CodeVersion, Kind: KindProportion,
		Label: "label", Trials: 7, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	p, err := MarshalJournalPoint(JournalPointInfo{K: 3, Q: 2, P: 0.25, X: -1e-9, Seed: 1 << 63, Value: []byte(`{"hits": 3, "n":[1e400, " "]}`)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{string(h), string(p), bothRecord, `{}`, `{"point":null}`, `{"point":{"value":null}}`, `{"header":{"fingerprint":"x"`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		h, p, err := ParseJournalRecord(line)
		if err != nil {
			if h != nil || p != nil {
				t.Fatalf("record returned alongside error %v", err)
			}
			return
		}
		if (h == nil) == (p == nil) {
			t.Fatalf("header %v and point %v: want exactly one", h, p)
		}
		var out []byte
		if h != nil {
			out, err = MarshalJournalHeader(*h)
		} else {
			out, err = MarshalJournalPoint(*p)
		}
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		h2, p2, err := ParseJournalRecord(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if h != nil {
			if h2 == nil || *h2 != *h {
				t.Fatalf("header %+v re-parsed as %+v", h, h2)
			}
			return
		}
		if p2 == nil || p2.K != p.K || p2.Q != p.Q || p2.P != p.P || p2.X != p.X || p2.Seed != p.Seed || !sameJSON(t, p.Value, p2.Value) {
			t.Fatalf("point %+v re-parsed as %+v", p, p2)
		}
	})
}

// sameJSON reports whether two JSON texts hold the same value, reading
// numbers as their literals and an absent text as null.
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	decode := func(data []byte) any {
		if data == nil {
			return nil
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		return v
	}
	return reflect.DeepEqual(decode(a), decode(b))
}
