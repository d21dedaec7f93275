// A terminal job's answers are fixed bytes: its CSV, rendered at the first
// fetch, and its event stream each go out as one response with a
// Content-Length, while a running job's progress events still reach the
// client one by one.
package sweepserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
)

// get fetches path from env's server and returns the response with its
// body read whole.
func get(t *testing.T, env *testEnv, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := env.http.Client().Get(env.http.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return resp, body
}

// eventNames returns the names of the events in an SSE body, in order.
func eventNames(body []byte) []string {
	var names []string
	for line := range strings.SplitSeq(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			names = append(names, name)
		}
	}
	return names
}

// TestTerminalAnswersAreSingleResponses: for a done job of every kind, and
// one whose CSV outgrows net/http's 2 KB buffer (past which an unsized
// response is chunked), the served CSV is RenderCSV of the job's result,
// and it and the job's event stream — one "done" event — each carry a
// Content-Length and are not chunked.
func TestTerminalAnswersAreSingleResponses(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	large := connectivitySpec([]int{4, 6, 8, 10},
		[]float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85})
	large.Sensors, large.Trials = 8, 1
	single := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for %d bytes; want one sized response",
				what, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
	for _, s := range append(kindSpecs(), namedSpec{"large", large}) {
		ack, _ := runJob(t, env, s.spec)
		job, _ := env.manager.Job(ack.ID)
		res, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := res.RenderCSV(&want); err != nil {
			t.Fatal(err)
		}
		resp, csv := get(t, env, "/v1/jobs/"+ack.ID+"/result?format=csv")
		if !bytes.Equal(csv, want.Bytes()) {
			t.Errorf("%s: served CSV differs from RenderCSV of the result:\n got:\n%s\nwant:\n%s", s.name, csv, want.Bytes())
		}
		single(s.name+" CSV", resp, csv)
		if s.name == "large" && len(csv) <= 2048 {
			t.Errorf("the large job's CSV is %d bytes; it must outgrow 2 KB", len(csv))
		}
		resp, stream := get(t, env, "/v1/jobs/"+ack.ID+"/events")
		if names := eventNames(stream); !slices.Equal(names, []string{sweepserve.StateDone}) {
			t.Errorf("%s: a done job's events are %v, want one done event", s.name, names)
		}
		single(s.name+" events", resp, stream)
	}
}

// TestCSVFetchedWhileJobFinishes: clients polling a job's CSV while the job
// runs and finishes get 409 until it is done, then each the bytes of the
// done job. Under -race it checks the first fetches, which may render the
// CSV side by side, against each other and the job's finish.
func TestCSVFetchedWhileJobFinishes(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	spec := connectivitySpec([]int{6, 9}, []float64{0.4, 0.8})
	ack, err := env.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	url := env.http.URL + "/v1/jobs/" + ack.ID + "/result?format=csv"
	csvs := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range csvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := env.http.Client().Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Error(err)
					return
				case resp.StatusCode == http.StatusOK:
					csvs[i] = body
					return
				case resp.StatusCode != http.StatusConflict:
					t.Errorf("GET CSV: %s: %s", resp.Status, body)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	_, want := runJob(t, env, spec)
	for i, csv := range csvs {
		if !bytes.Equal(csv, want) {
			t.Errorf("client %d fetched\n%s\nwant\n%s", i, csv, want)
		}
	}
}

// TestProgressEventsFlushed: a running job's progress events reach the
// client while the job runs, before its terminal event. The job's second
// point blocks until the client has seen the first point done.
func TestProgressEventsFlushed(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	env := newEnv(t, sweepserve.Options{
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				if pt.Index > 0 {
					<-release
				}
				return build(pt)
			}
		},
	})
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ack, err := env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.4, 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, env.http.URL+"/v1/jobs/"+ack.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := env.http.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	seen := false
	for !seen && sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st sweepserve.JobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != sweepserve.StateQueued && st.State != sweepserve.StateRunning {
			t.Fatalf("job reached %s while its second point was blocked", st.State)
		}
		seen = st.Progress.Done == 1
	}
	if !seen {
		t.Fatalf("no progress event with the first point done reached the client: %v", sc.Err())
	}
	once.Do(func() { close(release) })
	var events []string
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1] != sweepserve.StateDone {
		t.Errorf("events after the release %v, want a final done event", events)
	}
}

// BenchmarkWarmJob times one warm job of a done 8-point spec as a client
// runs it over HTTP: submit, follow the event stream to its terminal event,
// fetch the CSV. The job is done before timing starts, so no point runs
// and the cost is the handlers'.
func BenchmarkWarmJob(b *testing.B) {
	m := sweepserve.NewManager(sweepserve.Options{})
	srv := httptest.NewServer(sweepserve.NewServer(m))
	defer func() {
		srv.Close()
		m.Close()
	}()
	client := &sweepserve.Client{Base: srv.URL, HTTP: srv.Client()}
	spec := connectivitySpec([]int{6, 9}, []float64{0.3, 0.5, 0.7, 0.9})
	ctx := context.Background()
	job := func() {
		ack, err := client.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + ack.ID + "/events")
		if err != nil {
			b.Fatal(err)
		}
		stream, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Contains(stream, []byte("event: done\n")) {
			b.Fatalf("events of job %s: %v\n%s", ack.ID, err, stream)
		}
		if _, err := client.CSV(ctx, ack.ID); err != nil {
			b.Fatal(err)
		}
	}
	job()
	b.ReportAllocs()
	for b.Loop() {
		job()
	}
}
