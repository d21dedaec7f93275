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
// (q, p) threshold grid, the empirical K* validation sweep (sharded), and
// the pivoted table CSV must work from the flag surface down.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "kstar.csv")
	err := runWith(t,
		"-n", "80", "-pool", "400", "-q", "1,2", "-p", "1,0.5",
		"-trials", "12", "-workers", "2", "-pointworkers", "3",
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
	for _, col := range []string{"q", "p", "K* exact (5)", "K* asymptotic (Lemma 2)", "paper", "t(K*) exact", "P[connected] @K* (sim)"} {
		if !strings.Contains(head, col) {
			t.Errorf("csv header %q missing column %q", head, col)
		}
	}
	if lines := strings.Count(strings.TrimSpace(text), "\n"); lines != 4 {
		t.Errorf("csv has %d data rows, want 4 (2 q × 2 p)", lines)
	}
	// Off-paper parameters render the paper column as "-".
	if !strings.Contains(text, "-") {
		t.Error("csv missing '-' placeholder for unpublished paper values")
	}
}

// TestListFlags pins the shared comma-list parsing: a trailing comma is
// accepted, and a list with no values fails naming its flag.
func TestListFlags(t *testing.T) {
	if err := runWith(t, "-n", "80", "-pool", "400", "-q", "2,", "-p", "1,", "-trials", "2"); err != nil {
		t.Errorf("-q 2, -p 1,: %v", err)
	}
	for _, args := range [][]string{{"-q", ","}, {"-p", ""}} {
		if err := runWith(t, append(args, "-trials", "2")...); err == nil || !strings.Contains(err.Error(), args[0]+" ") {
			t.Errorf("%s %q: error = %v, want one naming %s", args[0], args[1], err, args[0])
		}
	}
}

// TestCSVDigests pins the CSV bytes of the smoke run, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, w := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "kstar.csv")
		if err := runWith(t, "-n", "80", "-pool", "400", "-q", "1,2", "-p", "1,0.5",
			"-trials", "12", "-pointworkers", "3",
			"-workers", w, "-csv", csv); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "cmd/kstar workers="+w, csv)
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
