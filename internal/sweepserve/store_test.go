package sweepserve

import (
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
