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

// runCrossq resets the flag surface and drives run() with the given argv
// tail, stdout discarded.
func runCrossq(t *testing.T, args ...string) error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("crossq", flag.ExitOnError)
	os.Args = append([]string{"crossq"}, args...)
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

// TestRunSmoke drives the cross sweep end to end on a small grid with point
// sharding enabled: the radius-bound disk sweep, the matched on/off sweep,
// the theory overlay, and the series CSV must work from the flag surface
// down.
func TestRunSmoke(t *testing.T) {
	flag.CommandLine = flag.NewFlagSet("crossq", flag.ExitOnError)
	csv := filepath.Join(t.TempDir(), "crossq.csv")
	os.Args = []string{"crossq",
		"-n", "40", "-pool", "200", "-ring", "30", "-q", "1,2", "-k", "1",
		"-rmin", "0.1", "-rmax", "0.5", "-rstep", "0.4",
		"-trials", "10", "-workers", "2", "-pointworkers", "3",
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
	for _, series := range []string{"disk q=1", "disk q=2", "on/off q=1", "on/off q=2", "theory q=1", "theory q=2"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

// TestCheckpointResumeRoundTrip exercises the multi-section journal: crossq
// runs TWO sweeps (disk and on/off) against one -checkpoint file, each under
// its own label. The resumed run must restore both sweeps from their own
// sections, recompute nothing, and reproduce the CSV bit for bit.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "crossq.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{
		"-n", "40", "-pool", "200", "-ring", "30", "-q", "1", "-k", "1",
		"-rmin", "0.1", "-rmax", "0.5", "-rstep", "0.4",
		"-trials", "6", "-workers", "2", "-pointworkers", "2",
		"-checkpoint", journal,
	}
	if err := runCrossq(t, append(args, "-csv", csv1)...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(first, []byte(`"header"`)); n != 2 {
		t.Fatalf("run 1 wrote %d headers, want 2 (disk + on/off sections)", n)
	}
	if err := runCrossq(t, append(args, "-csv", csv2)...); err != nil {
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
	if n := bytes.Count(appended, []byte(`"header"`)); n != 2 {
		t.Errorf("resume appended %d headers, want 2", n)
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
		csv := filepath.Join(t.TempDir(), "crossq.csv")
		if err := runCrossq(t, "-n", "40", "-pool", "200", "-ring", "30", "-q", "1,2", "-k", "1",
			"-rmin", "0.1", "-rmax", "0.5", "-rstep", "0.4",
			"-trials", "10", "-pointworkers", "3",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/crossq workers="+w, csv)
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
