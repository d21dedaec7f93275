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

// runWithArgs resets the flag surface, points stdout at /dev/null, and
// drives run() with the given argv tail.
func runWithArgs(t *testing.T, args ...string) error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("mindegree", flag.ExitOnError)
	os.Args = append([]string{"mindegree"}, args...)
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

// TestRunSmoke drives the Lemma 8 tool end to end on a small grid with
// point sharding enabled, in both modes: the streaming (graph-free)
// min-degree sweep and the legacy csr joint min-degree/k-connectivity
// sweep. In each mode the limit overlay and the series CSV must work from
// the flag surface down.
func TestRunSmoke(t *testing.T) {
	for _, mode := range []string{"stream", "csr"} {
		t.Run(mode, func(t *testing.T) {
			csv := filepath.Join(t.TempDir(), "mindegree.csv")
			err := runWithArgs(t,
				"-mode", mode,
				"-n", "60", "-pool", "300", "-q", "1", "-p", "0.9", "-k", "2",
				"-kmin", "8", "-kmax", "12", "-kstep", "4",
				"-trials", "10", "-workers", "2", "-pointworkers", "3",
				"-csv", csv,
			)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(csv)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "limit (7)=(76)") {
				t.Error("series csv missing the limit overlay curve")
			}
			if !strings.Contains(string(data), "P[min degree >= 2]") {
				t.Error("series csv missing the min-degree curve")
			}
			if strings.Contains(string(data), "P[2-connected]") != (mode == "csr") {
				t.Errorf("mode %s: k-connectivity curve presence wrong", mode)
			}
		})
	}
}

// TestRunRejectsUnknownMode covers the mode validation.
func TestRunRejectsUnknownMode(t *testing.T) {
	err := runWithArgs(t, "-mode", "bogus", "-trials", "1")
	if err == nil || !strings.Contains(err.Error(), "unknown -mode") {
		t.Fatalf("err = %v, want unknown -mode", err)
	}
}

// TestCheckpointResumeRoundTrip re-runs the streaming sweep against one
// -checkpoint journal; the resumed run recomputes nothing and produces a
// bit-identical CSV.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "mindegree.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{
		"-n", "60", "-pool", "300", "-q", "1", "-k", "1",
		"-kmin", "10", "-kmax", "14", "-kstep", "2",
		"-trials", "8", "-workers", "2", "-pointworkers", "2",
		"-checkpoint", journal,
	}
	if err := runWithArgs(t, append(args, "-csv", csv1)...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := runWithArgs(t, append(args, "-csv", csv2)...); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	second, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run appends exactly one header and zero point records.
	appended := second[len(first):]
	if n := bytes.Count(appended, []byte(`"point"`)); n != 0 {
		t.Errorf("resume recomputed %d points, want 0", n)
	}
	if n := bytes.Count(appended, []byte(`"header"`)); n != 1 {
		t.Errorf("resume appended %d headers, want 1", n)
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
		{"stream", []string{"-mode", "stream",
			"-n", "60", "-pool", "300", "-q", "1", "-p", "0.9", "-k", "2",
			"-kmin", "8", "-kmax", "12", "-kstep", "4",
			"-trials", "10", "-pointworkers", "3"}},
		{"csr", []string{"-mode", "csr",
			"-n", "60", "-pool", "300", "-q", "1", "-p", "0.9", "-k", "2",
			"-kmin", "8", "-kmax", "12", "-kstep", "4",
			"-trials", "10", "-pointworkers", "3"}},
	} {
		for _, w := range []string{"1", "2"} {
			csv := filepath.Join(t.TempDir(), "mindegree.csv")
			if err := runWithArgs(t, append(v.args, "-workers", w, "-csv", csv)...); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "cmd/mindegree "+v.name+" workers="+w, csv)
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
