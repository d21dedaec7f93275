// Regression companions to the integration suite, covering the server's
// capacity and crash edges: interleaved journal sections under JobWorkers >
// 1, torn-final-line truncation across THREE server lives, queue saturation
// as 503, and Close failing queued jobs so every watcher sees a terminal
// event.
package sweepserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/faultinject"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// TestInterleavedJournalSurvivesRestart: with JobWorkers > 1, concurrent
// jobs append their sections interleaved into the ONE shared journal file.
// The dangerous pair is two specs sharing base seed, trials and grid
// coordinates — identical parameter-derived point seeds — whose results
// differ because the deployment differs (here: sensor count, which lives
// only in the section label). A restart on the interleaved journal must
// restore every point under its own section: full cache hits per job,
// results DeepEqual each spec's offline twin.
func TestInterleavedJournalSurvivesRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "interleaved.journal")
	ks, ps := []int{6, 9}, []float64{0.4, 0.6, 0.8}
	specA := connectivitySpec(ks, ps)
	specB := connectivitySpec(ks, ps)
	specB.Sensors = testSensors + 10
	perJob := len(ks) * len(ps)

	offlineFor := func(sensors int) []experiment.ProportionResult {
		return offline(t, experiment.Grid{Ks: ks, Qs: []int{1}, Ps: ps},
			experiment.SweepConfig{Trials: testTrials, Seed: testSeed},
			func(pt experiment.GridPoint) (wsn.Config, error) {
				scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
				if err != nil {
					return wsn.Config{}, err
				}
				return wsn.Config{Sensors: sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
			})
	}
	wantA := offlineFor(testSensors)
	wantB := offlineFor(testSensors + 10)

	// Life 1: two job workers, and a rendezvous on each job's first point
	// build — both jobs compute their points at once, so their point lines
	// interleave in the file, each run under its own re-emitted header.
	store1, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	var barrier sync.WaitGroup
	barrier.Add(2)
	m1 := sweepserve.NewManager(sweepserve.Options{
		Store:      store1,
		JobWorkers: 2,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			var once sync.Once
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				once.Do(func() {
					barrier.Done()
					barrier.Wait()
				})
				return build(pt)
			}
		},
	})
	srv1 := httptest.NewServer(sweepserve.NewServer(m1))
	client1 := &sweepserve.Client{Base: srv1.URL, HTTP: srv1.Client(), Poll: 2 * time.Millisecond}

	ctx := context.Background()
	var wg sync.WaitGroup
	var resA, resB []experiment.ProportionResult
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, errA = client1.RunProportion(ctx, specA)
	}()
	go func() {
		defer wg.Done()
		resB, errB = client1.RunProportion(ctx, specB)
	}()
	wg.Wait()
	srv1.Close()
	m1.Close()
	store1.Close()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent jobs failed: %v, %v", errA, errB)
	}
	if !reflect.DeepEqual(resA, wantA) {
		t.Errorf("life 1: spec A results differ from offline sweep")
	}
	if !reflect.DeepEqual(resB, wantB) {
		t.Errorf("life 1: spec B results differ from offline sweep")
	}

	// Life 2: restart on the interleaved journal. Both jobs' points must
	// restore — each under its own spec. (Misattribution collapses the two
	// sections onto one label, halving the restored count AND serving spec
	// A's simulations to spec B.)
	store2, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Stats().Restored; got != 2*perJob {
		t.Fatalf("restart restored %d points, want %d (every point under its own section)", got, 2*perJob)
	}
	var recomputed []experiment.GridPoint
	var mu sync.Mutex
	m2 := sweepserve.NewManager(sweepserve.Options{
		Store: store2,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				mu.Lock()
				recomputed = append(recomputed, pt)
				mu.Unlock()
				return build(pt)
			}
		},
	})
	srv2 := httptest.NewServer(sweepserve.NewServer(m2))
	defer func() {
		srv2.Close()
		m2.Close()
		store2.Close()
	}()
	client2 := &sweepserve.Client{Base: srv2.URL, HTTP: srv2.Client(), Poll: 2 * time.Millisecond}

	gotA, err := client2.RunProportion(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := client2.RunProportion(ctx, specB)
	if err != nil {
		t.Fatal(err)
	}
	if len(recomputed) != 0 {
		t.Errorf("restart recomputed %d points (%v), want 0 — the journal held them all", len(recomputed), recomputed)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("restarted server serves spec A results that differ from its offline sweep")
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("restarted server serves spec B results that differ from its offline sweep")
	}
}

// TestTornFinalRecordTruncatedOnReopen: a kill mid-append leaves a torn
// final line. Reopening must not only tolerate it but CUT it off — left in
// place, the next checkpoint concatenates a complete record onto the
// partial line and the restart after that reads a malformed record
// mid-file and refuses to start. Three lives: write, reopen-after-tear and
// append, reopen again clean.
func TestTornFinalRecordTruncatedOnReopen(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "torn.journal")
	spec := connectivitySpec([]int{6, 9}, []float64{0.5})
	ctx := context.Background()

	// Life 1: compute both points, journaling each.
	store1, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	m1 := sweepserve.NewManager(sweepserve.Options{Store: store1})
	srv1 := httptest.NewServer(sweepserve.NewServer(m1))
	client1 := &sweepserve.Client{Base: srv1.URL, HTTP: srv1.Client(), Poll: 2 * time.Millisecond}
	if _, err := client1.RunProportion(ctx, spec); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	m1.Close()
	store1.Close()

	// The kill: chop the file mid-way through its final record.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	validPrefix := torn[:bytes.LastIndexByte(torn, '\n')+1]

	// Life 2: reopen. The surviving point restores, the torn tail is
	// physically truncated, and the lost point recomputes and re-appends.
	store2, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatalf("reopen after torn final line: %v", err)
	}
	if got := store2.Stats().Restored; got != 1 {
		t.Errorf("reopen restored %d points, want 1 (the torn record's point is lost)", got)
	}
	if onDisk, err := os.ReadFile(journal); err != nil || !bytes.Equal(onDisk, validPrefix) {
		t.Errorf("torn record not truncated: file is %d bytes, want the %d-byte valid prefix (err %v)",
			len(onDisk), len(validPrefix), err)
	}
	m2 := sweepserve.NewManager(sweepserve.Options{Store: store2})
	srv2 := httptest.NewServer(sweepserve.NewServer(m2))
	client2 := &sweepserve.Client{Base: srv2.URL, HTTP: srv2.Client(), Poll: 2 * time.Millisecond}
	if _, err := client2.RunProportion(ctx, spec); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	m2.Close()
	store2.Close()

	// Life 3: the appended-to journal must still open clean — this is the
	// restart the un-truncated tear would have broken — and now serves the
	// whole grid from cache.
	store3, err := sweepserve.OpenStore(journal)
	if err != nil {
		t.Fatalf("second restart refused the journal: %v", err)
	}
	defer store3.Close()
	if got := store3.Stats().Restored; got != 2 {
		t.Errorf("second restart restored %d points, want 2", got)
	}
}

// TestQueueFullReturns503: queue saturation is server capacity, not a
// client error — the submit must come back 503 with a Retry-After hint,
// not 400.
func TestQueueFullReturns503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	env := newEnv(t, sweepserve.Options{
		QueueDepth: 1,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				once.Do(func() { close(started) })
				<-release
				return build(pt)
			}
		},
	})
	// Registered after newEnv, so the wedge lifts BEFORE the env's cleanup
	// calls manager.Close (cleanups run last-in-first-out).
	t.Cleanup(func() { close(release) })
	ctx := context.Background()

	// Distinct specs so nothing coalesces: job 1 wedges the single worker,
	// job 2 fills the one queue slot, job 3 finds the queue full.
	if _, err := env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.3})); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.5})); err != nil {
		t.Fatal(err)
	}

	payload, err := json.Marshal(connectivitySpec([]int{6}, []float64{0.7}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := env.http.Client().Post(env.http.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("full queue got status %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !strings.Contains(body.Error, "queue full") {
		t.Errorf("503 body %q does not name the condition (decode err %v)", body.Error, err)
	}

	// The typed client surfaces the same condition as a plain (non-Spec)
	// error carrying the status.
	_, err = env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.9}))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("client submit error %v, want a 503", err)
	}
	if _, ok := err.(*sweepserve.SpecError); ok {
		t.Error("queue-full surfaced as a SpecError — it is not the client's fault")
	}
}

// TestCloseDrainsQueuedJobs: Close must leave EVERY job terminal — the
// running one cancelled by the sweep context, the queued one failed
// "shutting down" — so SSE watchers get their final event and sweepd's
// HTTP drain completes instead of timing out on a forever-"queued" job.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	// Per-trial delay keeps job 1 busy long enough to call Close mid-sweep
	// while staying cancellable between trials.
	injector := faultinject.New(faultinject.Config{Seed: 1, TrialDelayProb: 1, Delay: 20 * time.Millisecond})
	started := make(chan struct{})
	var once sync.Once
	m := sweepserve.NewManager(sweepserve.Options{
		TrialWorkers: 1,
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			slow := injector.ProportionBuild(build)
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				once.Do(func() { close(started) })
				return slow(pt)
			}
		},
	})
	srv := httptest.NewServer(sweepserve.NewServer(m))
	defer srv.Close()
	client := &sweepserve.Client{Base: srv.URL, HTTP: srv.Client(), Poll: 2 * time.Millisecond}
	ctx := context.Background()

	ack1, err := client.Submit(ctx, connectivitySpec([]int{6, 9}, []float64{0.3, 0.5, 0.7}))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ack2, err := client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.9}))
	if err != nil {
		t.Fatal(err)
	}
	if ack2.State != sweepserve.StateQueued {
		t.Fatalf("second job state %q, want queued behind the single worker", ack2.State)
	}

	// An SSE watcher on the queued job: its stream must end with a terminal
	// event once the server closes.
	finalEvent := make(chan string, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + ack2.ID + "/events")
		if err != nil {
			finalEvent <- "transport error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		last := ""
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				last = strings.TrimPrefix(line, "event: ")
			}
		}
		finalEvent <- last
	}()

	m.Close()

	j1, ok := m.Job(ack1.ID)
	if !ok {
		t.Fatal("running job vanished")
	}
	if st := j1.Status(); st.State != sweepserve.StateDone && st.State != sweepserve.StateFailed {
		t.Errorf("running job left non-terminal after Close: %+v", st)
	}
	j2, ok := m.Job(ack2.ID)
	if !ok {
		t.Fatal("queued job vanished")
	}
	if st := j2.Status(); st.State != sweepserve.StateFailed || !strings.Contains(st.Error, "shutting down") {
		t.Errorf("queued job after Close = %+v, want failed with a shutting-down error", st)
	}
	select {
	case ev := <-finalEvent:
		if ev != "failed" {
			t.Errorf("queued job's SSE stream ended with event %q, want \"failed\"", ev)
		}
	case <-time.After(5 * time.Second):
		t.Error("queued job's SSE stream never terminated after Close")
	}

	// Submissions after Close: 503, not a hang and not a 400.
	payload, err := json.Marshal(connectivitySpec([]int{9}, []float64{0.4}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close submit got status %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
}
