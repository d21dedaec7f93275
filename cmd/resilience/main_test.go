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

// runResilience resets the flag surface and drives run() with the given argv
// tail, stdout discarded.
func runResilience(t *testing.T, args ...string) error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("resilience", flag.ExitOnError)
	os.Args = append([]string{"resilience"}, args...)
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

// TestRunSmoke drives the classic mode end to end at a small scale: scheme
// dimensioning, the sharded (q × capture) capture sweep on prebuilt
// DeployerPools, the analytic overlay, and the series CSV must work from
// the flag surface down.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "resilience.csv")
	err := runResilience(t,
		"-sensors", "40", "-ring", "12", "-target", "0.4", "-qmax", "2",
		"-xmax", "10", "-xstep", "5",
		"-trials", "6", "-workers", "2", "-pointworkers", "3",
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
	for _, series := range []string{"q=1 simulated", "q=1 analytic", "q=2 simulated", "q=2 analytic"} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

// TestRunTimelineSmoke drives the timeline mode with two campaigns — pure
// capture vs capture+failure — and checks both campaigns' secure and
// compromised curves reach the CSV.
func TestRunTimelineSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "timeline.csv")
	err := runResilience(t,
		"-sensors", "40", "-ring", "12", "-target", "0.4", "-q", "2",
		"-timeline", "capture:20;capture:10,fail:10",
		"-xstep", "5",
		"-trials", "6", "-workers", "2", "-pointworkers", "3",
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
	for _, series := range []string{
		"secure capture:20", "compromised capture:20",
		"secure capture:10,fail:10", "compromised capture:10,fail:10",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("series csv missing curve %q", series)
		}
	}
}

func TestRunTimelineRejectsBadSpec(t *testing.T) {
	for _, spec := range []string{"steal:5", "capture:0", "capture", ";"} {
		if err := runResilience(t, "-timeline", spec, "-trials", "2"); err == nil {
			t.Errorf("timeline %q accepted", spec)
		}
	}
}

// TestCheckpointResumeRoundTrip exercises the multi-section journal in
// timeline mode: one -checkpoint file holds each campaign's section under
// its own label. The resumed run must restore every campaign from its own
// section, recompute nothing, and reproduce the CSV bit for bit.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "resilience.journal")
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	args := []string{
		"-sensors", "40", "-ring", "12", "-target", "0.4", "-q", "2",
		"-timeline", "capture:16;capture:8,fail:8",
		"-xstep", "8",
		"-trials", "5", "-workers", "2", "-pointworkers", "2",
		"-checkpoint", journal,
	}
	if err := runResilience(t, append(args, "-csv", csv1)...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(first, []byte(`"header"`)); n != 2 {
		t.Fatalf("run 1 wrote %d headers, want 2 (one per campaign)", n)
	}
	if err := runResilience(t, append(args, "-csv", csv2)...); err != nil {
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

// TestCheckpointResumeClassicMode: the classic mode is wired through the same
// journal plumbing.
func TestCheckpointResumeClassicMode(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "classic.journal")
	args := []string{
		"-sensors", "40", "-ring", "12", "-target", "0.4", "-qmax", "1",
		"-xmax", "10", "-xstep", "5", "-trials", "4",
		"-checkpoint", journal,
	}
	if err := runResilience(t, args...); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	first, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := runResilience(t, args...); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	second, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(second[len(first):], []byte(`"point"`)); n != 0 {
		t.Errorf("resume recomputed %d points, want 0", n)
	}
}

// TestCSVDigests pins the CSV bytes of the smoke runs, at one and at two
// workers, to the repository's digest table.
func TestCSVDigests(t *testing.T) {
	for _, v := range []struct {
		name string
		args []string
	}{
		{"classic", []string{"-sensors", "40", "-ring", "12", "-target", "0.4", "-qmax", "2",
			"-xmax", "10", "-xstep", "5",
			"-trials", "6", "-pointworkers", "3"}},
		{"timeline", []string{"-sensors", "40", "-ring", "12", "-target", "0.4", "-q", "2",
			"-timeline", "capture:20;capture:10,fail:10",
			"-xstep", "5",
			"-trials", "6", "-pointworkers", "3"}},
	} {
		for _, w := range []string{"1", "2"} {
			csv := filepath.Join(t.TempDir(), "resilience.csv")
			if err := runResilience(t, append(v.args, "-workers", w, "-csv", csv)...); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "cmd/resilience "+v.name+" workers="+w, csv)
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
