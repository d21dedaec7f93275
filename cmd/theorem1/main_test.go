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

// runTheorem1 resets the flag surface and drives run() with the given argv
// tail, stdout discarded.
func runTheorem1(t *testing.T, args ...string) error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("theorem1", flag.ExitOnError)
	os.Args = append([]string{"theorem1"}, args...)
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

// TestRunSmoke drives the tool end to end on a small grid through the
// SweepKConnectivity path with point sharding enabled: the (K × k) grid,
// theory overlay, and series CSV must work from the flag surface down.
func TestRunSmoke(t *testing.T) {
	flag.CommandLine = flag.NewFlagSet("theorem1", flag.ExitOnError)
	csv := filepath.Join(t.TempDir(), "theorem1.csv")
	os.Args = []string{"theorem1",
		"-n", "60", "-pool", "300", "-q", "1", "-kconn", "2",
		"-kmin", "8", "-kmax", "12", "-kstep", "4",
		"-trials", "15", "-workers", "2", "-pointworkers", "3",
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
	for _, series := range []string{"empirical k=1", "empirical k=2", "theory k=1", "theory k=2"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

// TestCheckpointResumeRoundTrip re-runs the k-connectivity sweep against one
// -checkpoint journal; the resumed run recomputes nothing and reproduces the
// CSV bit for bit.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "theorem1.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{
		"-n", "60", "-pool", "300", "-q", "1", "-kconn", "2",
		"-kmin", "8", "-kmax", "12", "-kstep", "4",
		"-trials", "10", "-workers", "2", "-pointworkers", "2",
		"-checkpoint", journal,
	}
	if err := runTheorem1(t, append(args, "-csv", csv1)...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := runTheorem1(t, append(args, "-csv", csv2)...); err != nil {
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

// TestCSVDigests pins the CSV bytes of the smoke run, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, w := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "theorem1.csv")
		if err := runTheorem1(t, "-n", "60", "-pool", "300", "-q", "1", "-kconn", "2",
			"-kmin", "8", "-kmax", "12", "-kstep", "4",
			"-trials", "15", "-pointworkers", "3",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/theorem1 workers="+w, csv)
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
