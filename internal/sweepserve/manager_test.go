package sweepserve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
)

// TestTerminalJobHoldsNoPlan: a done and a failed job both drop their
// compiled plan and hold no CSV. A done job read as JSON still holds none;
// its first CSV fetch renders RenderCSV of its result and keeps it, and the
// next fetch serves those same bytes.
func TestTerminalJobHoldsNoPlan(t *testing.T) {
	errBuild := errors.New("deliberate build failure")
	m := NewManager(Options{
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				if pt.P < 0.5 {
					return nil, errBuild
				}
				return build(pt)
			}
		},
	})
	defer m.Close()
	srv := NewServer(m)
	fetch := func(j *Job, query string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"/result"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET result%s: %d: %s", query, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	held := func(j *Job) (state string, plan *jobPlan, result *JobResult, csv []byte) {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state, j.plan, j.result, j.csv
	}
	for _, tc := range []struct {
		p     float64
		state string
	}{{0.8, StateDone}, {0.3, StateFailed}} {
		j, _, err := m.Submit(JobSpec{
			Kind: KindConnectivity, Sensors: 8, Pool: 50, Trials: 2, Seed: 1,
			Grid: GridSpec{Ks: []int{6}, Qs: []int{1}, Ps: []float64{tc.p}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for {
			change, terminal := j.await()
			if terminal {
				break
			}
			<-change
		}
		state, plan, result, csv := held(j)
		if state != tc.state || plan != nil || csv != nil {
			t.Errorf("p = %g: job %s holds plan %p and CSV %q, want %s with neither", tc.p, state, plan, csv, tc.state)
		}
		if state != StateDone {
			continue
		}
		fetch(j, "")
		if _, _, _, csv := held(j); csv != nil {
			t.Errorf("a JSON fetch left the job holding CSV %q", csv)
		}
		var want bytes.Buffer
		if err := result.RenderCSV(&want); err != nil {
			t.Fatal(err)
		}
		if got := fetch(j, "?format=csv"); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("first CSV fetch served %q, want %q", got, want.Bytes())
		}
		_, _, _, kept := held(j)
		if len(kept) == 0 || !bytes.Equal(kept, want.Bytes()) {
			t.Fatalf("after a CSV fetch the job holds %q, want %q", kept, want.Bytes())
		}
		again, err := j.renderedCSV(result)
		if err != nil || &again[0] != &kept[0] {
			t.Errorf("a second CSV read rendered anew (err %v), want the kept bytes", err)
		}
	}
}
