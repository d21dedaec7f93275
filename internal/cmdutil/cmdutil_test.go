package cmdutil

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
)

func TestOpenDefaultsResumeToExistingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	if err := os.WriteFile(path, []byte("{\"header\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := &Journal{checkpointPath: path}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.resumeData == nil {
		t.Error("existing checkpoint file was not adopted as the resume journal")
	}

	// A fresh path resumes nothing but still opens for checkpointing.
	j2 := &Journal{checkpointPath: filepath.Join(dir, "new.journal")}
	if err := j2.Open(); err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.resumeData != nil {
		t.Error("nonexistent checkpoint file produced resume data")
	}
	if j2.file == nil {
		t.Error("checkpoint file was not opened")
	}
}

func TestApplyHandsEachSweepItsOwnReader(t *testing.T) {
	j := &Journal{resumeData: []byte("shared resume bytes")}
	a := j.Apply(experiment.SweepConfig{}, "sweep a")
	b := j.Apply(experiment.SweepConfig{}, "sweep b")
	if a.JournalLabel != "sweep a" || b.JournalLabel != "sweep b" {
		t.Errorf("labels not applied: %q, %q", a.JournalLabel, b.JournalLabel)
	}
	if a.Resume == nil || b.Resume == nil || a.Resume == b.Resume {
		t.Error("sweeps share one resume reader; each needs its own")
	}
	// Draining one sweep's reader must not starve the other's.
	buf := make([]byte, 32)
	n, _ := a.Resume.Read(buf)
	if n == 0 {
		t.Fatal("first reader empty")
	}
	if n2, _ := b.Resume.Read(buf); n2 != n {
		t.Error("second sweep's reader was consumed by the first")
	}
}

func TestHintNamesTheJournal(t *testing.T) {
	j := &Journal{checkpointPath: "run.journal"}
	cause := errors.New("sweep cancelled")
	err := j.Hint(cause)
	if !errors.Is(err, cause) {
		t.Error("hint lost the underlying error")
	}
	if !strings.Contains(err.Error(), "run.journal") {
		t.Errorf("hint %q does not name the journal file", err)
	}
	if (&Journal{}).Hint(cause) != cause {
		t.Error("hint without a checkpoint should pass the error through")
	}
	if j.Hint(nil) != nil {
		t.Error("nil error must stay nil")
	}
}

func TestParseList(t *testing.T) {
	ints := []struct {
		in   string
		want []int
		err  string // substring of the error; "" for success
	}{
		{in: "2,3", want: []int{2, 3}},
		{in: " 2 , 3 ", want: []int{2, 3}},
		{in: "2,", want: []int{2}},
		{in: ",2,,3,", want: []int{2, 3}},
		{in: "", err: `-q "" lists no values`},
		{in: ",", err: `-q "," lists no values`},
		{in: " , ", err: `-q " , " lists no values`},
		{in: "2,x", err: `parse -q "x"`},
		{in: "1.5", err: `parse -q "1.5"`},
	}
	for _, tc := range ints {
		got, err := ParseList[int]("q", tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseList[int](%q) error = %v, want one containing %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseList[int](%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	floats, err := ParseList[float64]("p", "1, 0.5,0.2,")
	if err != nil || !slices.Equal(floats, []float64{1, 0.5, 0.2}) {
		t.Errorf("ParseList[float64] = %v, %v", floats, err)
	}
	if _, err := ParseList[float64]("p", "0.5,abc"); err == nil || !strings.Contains(err.Error(), `parse -p "abc"`) {
		t.Errorf("bad float: error = %v", err)
	}
}
