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
// its flags anew, so tests can drive run() more than once per binary.
func resetFlags() {
	flag.CommandLine = flag.NewFlagSet("figure1", flag.ExitOnError)
}

// TestRunSmoke drives the Figure 1 tool end to end on a small grid with
// point sharding enabled: the six (q, p) curves, threshold printout, and
// series CSV must work from the flag surface down.
func TestRunSmoke(t *testing.T) {
	resetFlags()
	csv := filepath.Join(t.TempDir(), "figure1.csv")
	os.Args = []string{"figure1",
		"-n", "50", "-pool", "300",
		"-kmin", "8", "-kmax", "12", "-kstep", "4",
		"-trials", "5", "-workers", "2", "-pointworkers", "3",
		"-csv", csv,
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()

	if err := run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, series := range []string{"q=2, p=1", "q=2, p=0.5", "q=3, p=0.2"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

// runFigure1 drives run() with the given argv tail, stdout discarded.
func runFigure1(t *testing.T, args ...string) error {
	t.Helper()
	resetFlags()
	os.Args = append([]string{"figure1"}, args...)
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	return run()
}

// journalCounts tallies header and point records in a checkpoint journal.
func journalCounts(t *testing.T, path string) (headers, points int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		switch {
		case bytes.Contains(line, []byte(`"header"`)):
			headers++
		case bytes.Contains(line, []byte(`"point"`)):
			points++
		}
	}
	return headers, points
}

// TestCheckpointResumeRoundTrip re-runs the same command line against one
// -checkpoint journal: the second run must resume every point from the file
// (appending a fresh header but recomputing nothing) and emit a CSV
// bit-identical to the first run's.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "figure1.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{
		"-n", "50", "-pool", "300",
		"-kmin", "8", "-kmax", "12", "-kstep", "4",
		"-trials", "5", "-workers", "2", "-pointworkers", "3",
		"-checkpoint", journal,
	}
	if err := runFigure1(t, append(args, "-csv", csv1)...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	headers, points := journalCounts(t, journal)
	if headers != 1 || points == 0 {
		t.Fatalf("after run 1: %d headers, %d points; want 1 header and some points", headers, points)
	}
	if err := runFigure1(t, append(args, "-csv", csv2)...); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	headers2, points2 := journalCounts(t, journal)
	if headers2 != 2 || points2 != points {
		t.Errorf("after resume: %d headers, %d points; want 2 headers and the original %d points (nothing recomputed)",
			headers2, points2, points)
	}
	a, err := os.ReadFile(csv1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(csv2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("resumed run's CSV differs from the original run's")
	}
}

// TestCSVDigests pins the CSV bytes of the smoke run, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, w := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "figure1.csv")
		if err := runFigure1(t, "-n", "50", "-pool", "300",
			"-kmin", "8", "-kmax", "12", "-kstep", "4",
			"-trials", "5", "-pointworkers", "3",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/figure1 workers="+w, csv)
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
