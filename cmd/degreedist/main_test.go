package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the migrated tool end to end on a small grid: the
// Deployer-backed trial loop, the PivotSweep table, and the CSV export must
// all work from the flag surface down.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "degreedist.csv")
	err := runArgs(t,
		"-n", "80", "-pool", "400", "-ring", "14", "-q", "1",
		"-hmax", "1", "-trials", "25", "-workers", "2",
		"-csv", csv,
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(data), "\n", 2)[0]
	for _, col := range []string{"h", "lambda (Lemma 9)", "empirical mean", "TV distance", "max count"} {
		if !strings.Contains(head, col) {
			t.Errorf("csv header %q missing column %q", head, col)
		}
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n"); lines != 2 {
		t.Errorf("csv has %d data rows, want 2 (h = 0, 1)", lines)
	}
}

// runArgs drives run() with a fresh flag set and the given argv tail,
// stdout discarded.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("degreedist", flag.ExitOnError)
	os.Args = append([]string{"degreedist"}, args...)
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

// TestCSVDigests pins the CSV bytes of the smoke run, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, w := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "degreedist.csv")
		if err := runArgs(t, "-n", "80", "-pool", "400", "-ring", "14", "-q", "1",
			"-hmax", "1", "-trials", "25",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/degreedist workers="+w, csv)
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
