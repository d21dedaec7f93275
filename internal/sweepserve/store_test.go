package sweepserve

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
)

// bothRecord is a journal line holding a header and a point at once.
const bothRecord = `{"header":{"fingerprint":"x"},"point":{"k":3}}`

// TestStoreRejectsHeaderAndPoint pins that both ways into the result store
// refuse a line holding a header and a point: restore treats it as
// corruption mid-file, and a checkpoint Write returns an error instead of
// ingesting the line as a header.
func TestStoreRejectsHeaderAndPoint(t *testing.T) {
	header, err := experiment.MarshalJournalHeader(experiment.JournalHeaderInfo{
		Fingerprint: "fp", Spec: "spec", Kind: experiment.KindProportion, Label: "l", Trials: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	point, err := experiment.MarshalJournalPoint(experiment.JournalPointInfo{K: 3, Q: 1, P: 0.5, Value: []byte("0.5")})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.journal")
	data := string(header) + bothRecord + "\n" + string(point)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "both") {
		if s != nil {
			s.Close()
		}
		t.Errorf("OpenStore over a mid-file both-record: error %v, want one saying it holds both", err)
	}

	w := &storeWriter{store: NewStore()}
	if _, err := w.Write([]byte(bothRecord + "\n")); err == nil || !strings.Contains(err.Error(), "both") {
		t.Errorf("Write(both-record) error %v, want one saying it holds both", err)
	}
	if st := w.store.Stats(); st.Points != 0 {
		t.Errorf("store holds %d points after a rejected Write, want 0", st.Points)
	}
}

// storeSeedSpecs are the jobs whose journals seed FuzzOpenStore: two kinds,
// two grid points each, at the integration suite's scale.
var storeSeedSpecs = []JobSpec{
	{Kind: KindConnectivity, Sensors: 30, Pool: 150, Trials: 12, Seed: 7,
		Grid: GridSpec{Ks: []int{6, 9}, Qs: []int{1}, Ps: []float64{0.5}}},
	{Kind: KindMinDegree, Sensors: 30, Pool: 150, Trials: 12, Seed: 7, K: 2,
		Grid: GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.6, 0.9}}},
}

// writeJournal runs each spec to completion, one after another, through a
// Manager over a journal-backed store and returns the journal bytes.
func writeJournal(f *testing.F, specs ...JobSpec) []byte {
	path := filepath.Join(f.TempDir(), "seed.journal")
	store, err := OpenStore(path)
	if err != nil {
		f.Fatal(err)
	}
	m := NewManager(Options{Store: store})
	for _, spec := range specs {
		j, _, err := m.Submit(spec)
		if err != nil {
			f.Fatal(err)
		}
		for ch, done := j.await(); !done; ch, done = j.await() {
			<-ch
		}
		if _, err := j.Result(); err != nil {
			f.Fatal(err)
		}
	}
	m.Close()
	if err := store.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpenStore feeds arbitrary journal files to OpenStore, the store's
// restart path. An input must open or fail with an error, never panic. When
// it opens, the file it leaves is a prefix of the input or the input with
// its last line ended, and that file must reopen to the same points. A checkpoint appended after the
// reopen must not disturb them either: the next open restores every point
// again, plus at most the appended one.
func FuzzOpenStore(f *testing.F) {
	a, b := writeJournal(f, storeSeedSpecs[0]), writeJournal(f, storeSeedSpecs[1])
	both := append(append([]byte(nil), a...), b...)
	// Interleave the two jobs' sections as concurrent jobs write them: each
	// point line under a fresh copy of its own job's header.
	la, lb := bytes.SplitAfter(a, []byte("\n")), bytes.SplitAfter(b, []byte("\n"))
	var interleaved []byte
	for i := 1; i < 3; i++ {
		interleaved = append(append(interleaved, la[0]...), la[i]...)
		interleaved = append(append(interleaved, lb[0]...), lb[i]...)
	}
	for _, seed := range [][]byte{
		a, b, both, interleaved,
		both[:len(both)-7], // a kill mid-append: a torn final record
		both[:len(both)-1], // a final record without its newline
		append(both, "\n\n  \n"...),
		append(append(a[:len(a)-3:len(a)-3], '\n'), b...), // a torn record mid-file
		append([]byte(bothRecord+"\n"), a...),
		nil,
	} {
		f.Add(seed)
	}
	// The checkpoint the fuzz body appends: a point of a third job.
	spec := storeSeedSpecs[0]
	spec.Seed = 8
	plan, err := spec.compile()
	if err != nil {
		f.Fatal(err)
	}
	pt := plan.grid.Points()[0]
	line, err := experiment.MarshalJournalPoint(experiment.JournalPointInfo{
		K: pt.K, Q: pt.Q, P: pt.P, X: pt.X, Seed: plan.config(0, 0).PointSeed(pt), Value: []byte("0.25"),
	})
	if err != nil {
		f.Fatal(err)
	}
	// One file per fuzz process, rewritten by every input.
	path := filepath.Join(f.TempDir(), "store.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(path)
		if err != nil {
			return // refused: the store fails closed
		}
		points := maps.Clone(s.points)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, left) && string(left) != string(data)+"\n" {
			t.Fatalf("OpenStore did more than cut a torn tail or end the last line:\n%q\nbecame\n%q", data, left)
		}

		s, err = OpenStore(path)
		if err != nil {
			t.Fatalf("the file OpenStore left does not reopen: %v", err)
		}
		samePoints(t, "reopen", points, s.points, 0)
		w, err := s.checkpointer(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = OpenStore(path)
		if err != nil {
			t.Fatalf("the file does not reopen after a checkpoint: %v", err)
		}
		defer s.Close()
		samePoints(t, "reopen after a checkpoint", points, s.points, 1)
	})
}

// samePoints fails unless got holds every point of want, with the same
// value, and at most extra more.
func samePoints(t *testing.T, stage string, want, got map[pointKey]json.RawMessage, extra int) {
	t.Helper()
	for k, v := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, v) {
			t.Fatalf("%s: point %+v is %q, want %q", stage, k, g, v)
		}
	}
	if len(got) > len(want)+extra {
		t.Fatalf("%s: %d points, want at most %d", stage, len(got), len(want)+extra)
	}
}
