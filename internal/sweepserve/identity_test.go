// Job identity: a job's ID is the sweep fingerprint of its spec, so it names
// one result whatever the worker counts, across resubmissions, failures,
// evictions and restarts.
package sweepserve_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/faultinject"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
)

// runJob submits spec, waits for its job to finish and returns the
// acknowledgement and the CSV.
func runJob(t *testing.T, env *testEnv, spec sweepserve.JobSpec) (sweepserve.SubmitResponse, []byte) {
	t.Helper()
	ctx := context.Background()
	ack, err := env.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := env.client.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sweepserve.StateDone {
		t.Fatalf("job %s ended %s: %s", ack.ID, st.State, st.Error)
	}
	csv, err := env.client.CSV(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	return ack, csv
}

// TestJobIDChangesExactlyWithResult changes each JobSpec field in turn, on
// bases of the kinds that read it. The ID must change exactly when the
// result CSV does: fields a kind ignores leave both alone. Worker counts
// must never change an ID.
func TestJobIDChangesExactlyWithResult(t *testing.T) {
	connectivity := func() sweepserve.JobSpec { return connectivitySpec([]int{6, 9}, []float64{0.5}) }
	hetero := func() sweepserve.JobSpec {
		s := connectivitySpec(nil, []float64{0.5})
		s.Classes = []sweepserve.ClassSpec{{Mu: 0.5, Ring: 6}, {Mu: 0.5, Ring: 9}}
		return s
	}
	cross := func() sweepserve.JobSpec {
		return sweepserve.JobSpec{
			Kind: sweepserve.KindCross, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, Binding: "radius", K: 2,
			Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Xs: []float64{0.2, 0.35}},
		}
	}
	design := func() sweepserve.JobSpec {
		return sweepserve.JobSpec{
			Kind: sweepserve.KindDesign, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, Target: 0.9, KMax: 2,
			Grid: sweepserve.GridSpec{Qs: []int{1}, Ps: []float64{0.9}},
		}
	}
	campaign := func() sweepserve.JobSpec {
		return sweepserve.JobSpec{
			Kind: sweepserve.KindCampaign, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed, Timeline: "capture:4",
			Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.7}, Xs: []float64{0, 4}},
		}
	}
	cases := []struct {
		name    string
		base    func() sweepserve.JobSpec
		mutate  func(*sweepserve.JobSpec)
		changes bool
	}{
		{"kind", connectivity, func(s *sweepserve.JobSpec) { s.Kind = sweepserve.KindMinDegree }, true},
		{"sensors", connectivity, func(s *sweepserve.JobSpec) { s.Sensors += 10 }, true},
		{"pool", connectivity, func(s *sweepserve.JobSpec) { s.Pool += 50 }, true},
		{"trials", connectivity, func(s *sweepserve.JobSpec) { s.Trials++ }, true},
		{"seed", connectivity, func(s *sweepserve.JobSpec) { s.Seed++ }, true},
		{"grid", connectivity, func(s *sweepserve.JobSpec) { s.Grid.Ps = []float64{0.7} }, true},
		{"classes", hetero, func(s *sweepserve.JobSpec) { s.Classes[1].Ring = 24 }, true},
		{"channel", connectivity, func(s *sweepserve.JobSpec) { s.Channel = &sweepserve.ChannelSpec{Type: "alwayson"} }, true},
		{"channel spelled as the default", connectivity, func(s *sweepserve.JobSpec) { s.Channel = &sweepserve.ChannelSpec{Type: "onoff"} }, false},
		{"binding", cross, func(s *sweepserve.JobSpec) { s.Binding = "on" }, true},
		{"torus", cross, func(s *sweepserve.JobSpec) { s.Torus = true }, true},
		{"k", cross, func(s *sweepserve.JobSpec) { s.K = 1 }, true},
		{"target", design, func(s *sweepserve.JobSpec) { s.Target = 0.5 }, true},
		{"kmax", design, func(s *sweepserve.JobSpec) { s.KMax = 3 }, true},
		{"timeline", campaign, func(s *sweepserve.JobSpec) { s.Timeline = "fail:4" }, true},
		{"binding ignored by connectivity", connectivity, func(s *sweepserve.JobSpec) { s.Binding = "radius" }, false},
		{"torus ignored by connectivity", connectivity, func(s *sweepserve.JobSpec) { s.Torus = true }, false},
		{"k ignored by connectivity", connectivity, func(s *sweepserve.JobSpec) { s.K = 3 }, false},
		{"design fields ignored by connectivity", connectivity, func(s *sweepserve.JobSpec) { s.Target, s.KMax = 0.9, 2 }, false},
		{"timeline ignored by connectivity", connectivity, func(s *sweepserve.JobSpec) { s.Timeline = "capture:4" }, false},
	}
	serial := newEnv(t, sweepserve.Options{TrialWorkers: 1, PointWorkers: 1})
	parallel := newEnv(t, sweepserve.Options{JobWorkers: 2, TrialWorkers: 2, PointWorkers: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, changed := tc.base(), tc.base()
			tc.mutate(&changed)
			baseAck, baseCSV := runJob(t, serial, base)
			ack, csv := runJob(t, serial, changed)
			if csvChanged := !bytes.Equal(baseCSV, csv); csvChanged != tc.changes {
				t.Fatalf("CSV changed = %t, want %t:\n%s\n%s", csvChanged, tc.changes, baseCSV, csv)
			}
			if idChanged := ack.ID != baseAck.ID; idChanged != tc.changes {
				t.Errorf("ID changed = %t while the CSV changed = %t (%s vs %s)", idChanged, tc.changes, baseAck.ID, ack.ID)
			}
			if other, _ := runJob(t, parallel, changed); other.ID != ack.ID {
				t.Errorf("worker counts changed the ID: %s vs %s", other.ID, ack.ID)
			}
		})
	}
}

// TestResubmittedDoneSpecIsServedByItsJob: resubmitting a done spec returns
// the same job — same ID, byte-identical CSV — without touching the store
// or the journal.
func TestResubmittedDoneSpecIsServedByItsJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "store.journal")
	store, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	env := newEnv(t, sweepserve.Options{Store: store})
	spec := connectivitySpec([]int{6, 9}, []float64{0.4, 0.8})

	first, firstCSV := runJob(t, env, spec)
	if first.Coalesced {
		t.Errorf("first submission reported coalesced: %+v", first)
	}
	stats := store.Stats()
	size := fileSize(t, journal)

	again, againCSV := runJob(t, env, spec)
	if again.ID != first.ID || !again.Coalesced || again.State != sweepserve.StateDone {
		t.Errorf("resubmission acknowledged as %+v, want the done job %s, coalesced", again, first.ID)
	}
	if !bytes.Equal(againCSV, firstCSV) {
		t.Errorf("resubmission CSV differs:\n got:\n%s\nwant:\n%s", againCSV, firstCSV)
	}
	if got := store.Stats(); got != stats {
		t.Errorf("resubmission moved the store stats from %+v to %+v", stats, got)
	}
	if got := fileSize(t, journal); got != size {
		t.Errorf("resubmission grew the journal from %d to %d bytes", size, got)
	}
	if n := env.manager.Coalesced(); n != 1 {
		t.Errorf("manager counts %d coalesced submissions, want 1", n)
	}
}

// TestFailedJobRerunsUnderItsID: a job failed by injected build errors is
// replaced, on resubmission, by a fresh run under the same ID, which
// succeeds with the CSV of a server that never failed.
func TestFailedJobRerunsUnderItsID(t *testing.T) {
	var faulty atomic.Bool
	faulty.Store(true)
	injector := faultinject.New(faultinject.Config{Seed: 1, BuildErrProb: 1})
	env := newEnv(t, sweepserve.Options{
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			failing := injector.ProportionBuild(build)
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				if faulty.Load() {
					return failing(pt)
				}
				return build(pt)
			}
		},
	})
	ctx := context.Background()
	spec := connectivitySpec([]int{6}, []float64{0.5})

	ack, err := env.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := env.client.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sweepserve.StateFailed {
		t.Fatalf("faulted job ended %s, want failed", st.State)
	}

	faulty.Store(false)
	rerun, csv := runJob(t, env, spec)
	if rerun.ID != ack.ID || rerun.Coalesced {
		t.Errorf("resubmitted failed spec acknowledged as %+v, want a fresh run under %s", rerun, ack.ID)
	}
	if n := env.manager.Jobs(); n != 1 {
		t.Errorf("the job table holds %d jobs, want the re-run alone", n)
	}
	_, want := runJob(t, newEnv(t, sweepserve.Options{}), spec)
	if !bytes.Equal(csv, want) {
		t.Errorf("re-run CSV differs from a clean server's:\n got:\n%s\nwant:\n%s", csv, want)
	}
}

// TestJobIDStableAcrossRestart: a new Manager over the same journal gives a
// spec the ID and CSV of the previous life, served from the store without
// appending to the journal; an ID never submitted is a 404.
func TestJobIDStableAcrossRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "store.journal")
	spec := connectivitySpec([]int{6, 9}, []float64{0.3, 0.7})

	life := func() (*sweepserve.Store, *testEnv) {
		store, err := sweepserve.OpenStore(journal)
		if err != nil {
			t.Fatal(err)
		}
		return store, newEnv(t, sweepserve.Options{Store: store})
	}
	store1, env1 := life()
	first, firstCSV := runJob(t, env1, spec)
	env1.http.Close()
	env1.manager.Close()
	store1.Close()

	size := fileSize(t, journal)
	store2, env2 := life()
	defer store2.Close()
	ctx := context.Background()
	for _, id := range []string{first.ID, strings.Repeat("f", len(first.ID))} {
		if _, err := env2.client.Status(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("status of %s before any submission in this life: %v, want a 404", id, err)
		}
	}
	again, againCSV := runJob(t, env2, spec)
	if again.ID != first.ID {
		t.Errorf("restarted server gave the spec ID %s, want %s", again.ID, first.ID)
	}
	if !bytes.Equal(againCSV, firstCSV) {
		t.Errorf("restarted server's CSV differs:\n got:\n%s\nwant:\n%s", againCSV, firstCSV)
	}
	if st, _ := env2.client.Status(ctx, again.ID); st.Progress.Cached != st.Progress.Total {
		t.Errorf("restarted job progress %+v, want every point from the store", st.Progress)
	}
	if got := fileSize(t, journal); got != size {
		t.Errorf("a job served wholly from the store grew the journal from %d to %d bytes", size, got)
	}
}

// TestTerminalJobsBounded submits more distinct specs than MaxTerminalJobs:
// exactly MaxTerminalJobs stay, the least recently submitted are evicted
// (404), and an evicted spec submitted again is served from the store, with
// the CSV bytes of its first run.
func TestTerminalJobsBounded(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	const extra = 3
	spec := func(i int) sweepserve.JobSpec {
		s := connectivitySpec([]int{6}, []float64{0.5})
		s.Sensors, s.Trials, s.Seed = 8, 1, uint64(i)
		return s
	}
	ids := make([]string, sweepserve.MaxTerminalJobs+extra)
	var evictedCSV []byte
	for i := range ids {
		ack, csv := runJob(t, env, spec(i))
		ids[i] = ack.ID
		if i == 1 {
			evictedCSV = csv
		}
		// Refresh the first job: the next evictions must pass it over.
		if i == extra+1 {
			if ack, _ := runJob(t, env, spec(0)); !ack.Coalesced {
				t.Fatalf("job 0 was evicted before the bound: %+v", ack)
			}
		}
	}
	if n := env.manager.Jobs(); n != sweepserve.MaxTerminalJobs {
		t.Fatalf("the job table holds %d jobs, want %d", n, sweepserve.MaxTerminalJobs)
	}
	for i, id := range ids {
		_, err := env.client.Status(ctx, id)
		evicted := i >= 1 && i <= extra
		if gone := err != nil && strings.Contains(err.Error(), "404"); gone != evicted {
			t.Errorf("job %d: status error %v, want evicted = %t", i, err, evicted)
		}
	}

	misses := env.store.Stats().Misses
	ack, csv := runJob(t, env, spec(1))
	if ack.ID != ids[1] || ack.Coalesced {
		t.Errorf("evicted spec acknowledged as %+v, want a new run under %s", ack, ids[1])
	}
	if !bytes.Equal(csv, evictedCSV) {
		t.Errorf("evicted spec's re-run CSV differs:\n got:\n%s\nwant:\n%s", csv, evictedCSV)
	}
	if got := env.store.Stats().Misses; got != misses {
		t.Errorf("evicted spec ran %d points, want 0: it is served from the store", got-misses)
	}
	if n := env.manager.Jobs(); n != sweepserve.MaxTerminalJobs {
		t.Errorf("after the re-run the job table holds %d jobs, want %d", n, sweepserve.MaxTerminalJobs)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
