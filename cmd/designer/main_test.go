package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the migrated tool end to end at a small scale: the
// design loop, the per-level empirical validation sweep through
// SweepKConnectivity (sharded), and the pivoted table CSV must work from
// the flag surface down.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "designer.csv")
	err := runWith(t,
		"-n", "80", "-pool", "400", "-q", "1", "-p", "0.9",
		"-kmax", "2", "-target", "0.9",
		"-trials", "12", "-workers", "2", "-pointworkers", "2",
		"-csv", csv,
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	head := strings.SplitN(text, "\n", 2)[0]
	for _, col := range []string{"k", "min ring K", "theory P[k-conn]", "simulated P[k-conn]", "alpha", "edge prob t", "expected degree"} {
		if !strings.Contains(head, col) {
			t.Errorf("csv header %q missing column %q", head, col)
		}
	}
	if lines := strings.Count(strings.TrimSpace(text), "\n"); lines != 2 {
		t.Errorf("csv has %d data rows, want 2 (k = 1, 2)", lines)
	}
}

// TestCSVDigests pins the CSV bytes of the smoke run, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, w := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "designer.csv")
		if err := runWith(t, "-n", "80", "-pool", "400", "-q", "1", "-p", "0.9",
			"-kmax", "2", "-target", "0.9",
			"-trials", "12", "-pointworkers", "2",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/designer workers="+w, csv)
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
