package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resetFlags gives run() a fresh global FlagSet: each invocation registers
// its flags anew, so tests driving the tool twice must clear the previous
// registration.
func resetFlags() {
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
}

func silenceStdout(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = stdout
		null.Close()
	})
}

// TestRunSmoke drives the zero–one mode end to end on a small (K1 × μ)
// grid with a non-uniform channel matrix: heterogeneous scheme + channel,
// theory-limit overlay, and series CSV from the flag surface down.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "hetero.csv")
	os.Args = []string{"hetero",
		"-n", "50", "-pool", "300", "-q", "1", "-k2", "40",
		"-k1min", "2", "-k1max", "10", "-k1step", "8",
		"-mus", "0.3,0.7", "-p", "0.8", "-p12", "0.6",
		"-trials", "10", "-workers", "2", "-pointworkers", "2",
		"-csv", csv,
	}
	silenceStdout(t)
	resetFlags()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, series := range []string{"μ=0.3", "μ=0.7", "limit μ=0.3", "limit μ=0.7"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

// TestRunKConnSmoke drives the -kconn cross-sweep mode: the (K1 × k) grid
// through SweepKConnectivity with the level-k limit overlays.
func TestRunKConnSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "hetero_kconn.csv")
	os.Args = []string{"hetero",
		"-n", "50", "-pool", "300", "-q", "1", "-k2", "40",
		"-k1min", "2", "-k1max", "10", "-k1step", "8",
		"-kconn", "2", "-mu", "0.4", "-p", "0.8",
		"-trials", "10", "-workers", "2", "-pointworkers", "3",
		"-csv", csv,
	}
	silenceStdout(t)
	resetFlags()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, series := range []string{"empirical k=1", "empirical k=2", "limit k=1", "limit k=2"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
	// An out-of-range mixing probability fails fast in kconn mode.
	os.Args = []string{"hetero", "-kconn", "1", "-mu", "1.5", "-trials", "1"}
	resetFlags()
	if err := run(); err == nil || !strings.Contains(err.Error(), "-mu") {
		t.Errorf("mu=1.5: err = %v, want a -mu validation error", err)
	}
}

// TestCheckpointResumeRoundTrip re-runs the zero-one sweep against one
// -checkpoint journal; the resumed run recomputes nothing and reproduces the
// CSV bit for bit.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "hetero.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{"hetero",
		"-n", "50", "-pool", "300", "-k2", "40",
		"-k1min", "4", "-k1max", "8", "-k1step", "4",
		"-mus", "0.3,0.7", "-p", "0.8",
		"-trials", "8", "-workers", "2", "-pointworkers", "2",
		"-checkpoint", journal,
	}
	silenceStdout(t)
	resetFlags()
	os.Args = append(args, "-csv", csv1)
	if err := run(); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	resetFlags()
	os.Args = append(args, "-csv", csv2)
	if err := run(); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	second, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	appended := second[len(first):]
	if n := bytes.Count(appended, []byte(`"point"`)); n != 0 {
		t.Errorf("resume recomputed %d points, want 0", n)
	}
	a, _ := os.ReadFile(csv1)
	b, _ := os.ReadFile(csv2)
	if !bytes.Equal(a, b) {
		t.Error("resumed run's CSV differs from the original run's")
	}
}

// TestCSVDigests pins the CSV bytes of the smoke runs, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, v := range []struct {
		name string
		args []string
	}{
		{"zeroone", []string{"-n", "50", "-pool", "300", "-q", "1", "-k2", "40",
			"-k1min", "2", "-k1max", "10", "-k1step", "8",
			"-mus", "0.3,0.7", "-p", "0.8", "-p12", "0.6",
			"-trials", "10", "-pointworkers", "2"}},
		{"kconn", []string{"-n", "50", "-pool", "300", "-q", "1", "-k2", "40",
			"-k1min", "2", "-k1max", "10", "-k1step", "8",
			"-kconn", "2", "-mu", "0.4", "-p", "0.8",
			"-trials", "10", "-pointworkers", "3"}},
	} {
		for _, w := range []string{"1", "2"} {
			csv := filepath.Join(t.TempDir(), "hetero.csv")
			os.Args = append(append([]string{"hetero"}, v.args...), "-workers", w, "-csv", csv)
			silenceStdout(t)
			resetFlags()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "cmd/hetero "+v.name+" workers="+w, csv)
		}
	}
}

// checkDigest compares the SHA-256 of the file at path with the digest the
// repository's table (testdata/digests.txt, lines "<sha256>  <name>") holds
// for name. A digest may change only in a change whose CHANGES.md entry says
// which result changed and why.
func checkDigest(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("../../testdata/digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(data))
	for _, line := range strings.Split(string(table), "\n") {
		if want, entry, ok := strings.Cut(line, "  "); ok && entry == name {
			if got != want {
				t.Errorf("%s: CSV digest %s, the table holds %s", name, got, want)
			}
			return
		}
	}
	t.Errorf("%s: no entry in the digest table; this run gives\n%s  %s", name, got, name)
}
