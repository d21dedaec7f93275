// Coverage companions to the integration suite: the job kinds and channel
// families the headline tests don't reach (design, kstar, heterogeneous
// schemes, disk/alwayson channels), CSV rendering of both result shapes, and
// the server's error surfaces.
package sweepserve_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// TestDesignKindMatchesDesignerSweep pins kind "design" to the sweep
// cmd/designer runs locally: same derived Xs axis, same DesignK ring per
// level, DeepEqual results.
func TestDesignKindMatchesDesignerSweep(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	const (
		n, pool = 80, 400
		target  = 0.9
		kmax    = 2
	)
	got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
		Kind: sweepserve.KindDesign, Sensors: n, Pool: pool,
		Trials: testTrials, Seed: testSeed, Target: target, KMax: kmax,
		Grid: sweepserve.GridSpec{Qs: []int{1}, Ps: []float64{0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := experiment.Grid{Qs: []int{1}, Ps: []float64{0.8}, Xs: experiment.KLevels(kmax)}
	want, err := experiment.SweepKConnectivity(ctx, grid,
		experiment.SweepConfig{Trials: testTrials, Seed: testSeed},
		func(pt experiment.GridPoint) (wsn.Config, error) {
			k, err := experiment.KOf(pt)
			if err != nil {
				return wsn.Config{}, err
			}
			ring, err := theory.DesignRingSize(n, pool, pt.Q, pt.P, k, target)
			if err != nil {
				return wsn.Config{}, err
			}
			scheme, err := keys.NewQComposite(pool, ring, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("design job differs from designer's local sweep:\n got %+v\nwant %+v", got, want)
	}
}

// TestKStarKindMatchesKstarSweep pins kind "kstar" to the sweep cmd/kstar
// runs locally: deploy at the exact eq. (9) threshold, full-deployment
// IsConnected trials, DeepEqual results.
func TestKStarKindMatchesKstarSweep(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	const n, pool = 80, 400
	qs, ps := []int{1, 2}, []float64{1, 0.5}
	got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
		Kind: sweepserve.KindKStar, Sensors: n, Pool: pool,
		Trials: testTrials, Seed: testSeed,
		Grid: sweepserve.GridSpec{Qs: qs, Ps: ps},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.SweepProportion(ctx, experiment.Grid{Qs: qs, Ps: ps},
		experiment.SweepConfig{Trials: testTrials, Seed: testSeed},
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			exact, err := theory.ThresholdRingSize(n, pool, pt.Q, pt.P)
			if err != nil {
				return nil, err
			}
			scheme, err := keys.NewQComposite(pool, exact, pt.Q)
			if err != nil {
				return nil, err
			}
			dp, err := wsn.NewDeployerPool(wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}})
			if err != nil {
				return nil, err
			}
			return func(trial int, r *rng.Rand) (bool, error) {
				d := dp.Get()
				defer dp.Put(d)
				net, err := d.DeployRand(r)
				if err != nil {
					return false, err
				}
				return net.IsConnected()
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kstar job differs from kstar's local sweep:\n got %+v\nwant %+v", got, want)
	}
}

// TestChannelAndSchemeVariants runs one small job per channel family and per
// scheme family against its offline twin: the spec layer must assemble the
// same models the engine builds directly.
func TestChannelAndSchemeVariants(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	cfg := experiment.SweepConfig{Trials: testTrials, Seed: testSeed}

	t.Run("fixed onoff", func(t *testing.T) {
		p := 0.7
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindConnectivity, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed,
			Grid:    sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}},
			Channel: &sweepserve.ChannelSpec{Type: "onoff", P: &p},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := offline(t, experiment.Grid{Ks: []int{9}, Qs: []int{1}}, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.OnOff{P: p}}, nil
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fixed-onoff job differs from offline sweep")
		}
	})

	t.Run("alwayson", func(t *testing.T) {
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindConnectivity, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed,
			Grid:    sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}},
			Channel: &sweepserve.ChannelSpec{Type: "alwayson"},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := offline(t, experiment.Grid{Ks: []int{9}, Qs: []int{1}}, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.AlwaysOn{}}, nil
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("alwayson job differs from offline sweep")
		}
	})

	t.Run("disk", func(t *testing.T) {
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindConnectivity, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed,
			Grid:    sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}},
			Channel: &sweepserve.ChannelSpec{Type: "disk", Radius: 0.4, Torus: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := offline(t, experiment.Grid{Ks: []int{9}, Qs: []int{1}}, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(testPool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.Disk{Radius: 0.4, Torus: true}}, nil
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("disk job differs from offline sweep")
		}
	})

	t.Run("heterogeneous scheme with heteronoff channel", func(t *testing.T) {
		classes := []sweepserve.ClassSpec{{Mu: 0.5, Ring: 6}, {Mu: 0.5, Ring: 12}}
		on := [][]float64{{0.9, 0.6}, {0.6, 0.3}}
		got, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
			Kind: sweepserve.KindConnectivity, Sensors: testSensors, Pool: testPool,
			Trials: testTrials, Seed: testSeed,
			Grid:    sweepserve.GridSpec{Qs: []int{1}},
			Classes: classes,
			Channel: &sweepserve.ChannelSpec{Type: "heteronoff", On: on},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := offline(t, experiment.Grid{Qs: []int{1}}, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewHeterogeneous(testPool, pt.Q, []keys.Class{
				{Mu: 0.5, RingSize: 6}, {Mu: 0.5, RingSize: 12},
			})
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: testSensors, Scheme: scheme, Channel: channel.HeterOnOff{P: on}}, nil
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("heterogeneous job differs from offline sweep")
		}
	})
}

func offline(t *testing.T, grid experiment.Grid, cfg experiment.SweepConfig,
	build func(pt experiment.GridPoint) (wsn.Config, error)) []experiment.ProportionResult {
	t.Helper()
	results, err := experiment.SweepConnectivity(context.Background(), grid, cfg, build)
	if err != nil {
		t.Fatalf("offline reference sweep failed: %v", err)
	}
	return results
}

// TestCSVRendering exercises both result shapes through the CSV endpoint:
// proportion tables carry counts + Wilson interval, campaign tables one
// column per outcome component.
func TestCSVRendering(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()

	ack, err := env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.client.Wait(ctx, ack.ID); err != nil {
		t.Fatal(err)
	}
	csv, err := env.client.CSV(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(csv), "\n", 2)[0]
	for _, col := range []string{"k", "q", "p", "x", "successes", "trials", "estimate", "lo95", "hi95"} {
		if !strings.Contains(head, col) {
			t.Errorf("proportion CSV header %q missing %q", head, col)
		}
	}
	if rows := strings.Count(strings.TrimSpace(string(csv)), "\n"); rows != 1 {
		t.Errorf("proportion CSV has %d data rows, want 1", rows)
	}

	ack2, err := env.client.Submit(ctx, sweepserve.JobSpec{
		Kind: sweepserve.KindCampaign, Sensors: testSensors, Pool: testPool,
		Trials: testTrials, Seed: testSeed, Timeline: "capture:3",
		Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.8}, Xs: []float64{0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := env.client.Wait(ctx, ack2.ID); err != nil || st.State != sweepserve.StateDone {
		t.Fatalf("campaign job: %+v, %v", st, err)
	}
	csv2, err := env.client.CSV(ctx, ack2.ID)
	if err != nil {
		t.Fatal(err)
	}
	head2 := strings.SplitN(string(csv2), "\n", 2)[0]
	for _, col := range []string{"secure_frac", "compromised_frac", "alive_frac", "keys_frac"} {
		if !strings.Contains(head2, col) {
			t.Errorf("campaign CSV header %q missing %q", head2, col)
		}
	}
	if rows := strings.Count(strings.TrimSpace(string(csv2)), "\n"); rows != 2 {
		t.Errorf("campaign CSV has %d data rows, want 2 (budgets 0 and 3)", rows)
	}
}

// TestServerErrorSurfaces walks the HTTP error paths: unknown jobs are 404,
// results of unfinished jobs are 409, failed jobs surface their error, and
// SpecError's Error() names the field for non-HTTP consumers.
func TestServerErrorSurfaces(t *testing.T) {
	failErr := errors.New("deliberate mid-sweep failure")
	env := newEnv(t, sweepserve.Options{
		WrapTrialBuild: func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				if pt.P > 0.6 { // fail only the marked job's points
					return nil, failErr
				}
				return build(pt)
			}
		},
	})
	ctx := context.Background()

	unknown := strings.Repeat("0", 64) // a fingerprint no spec was submitted under
	if _, err := env.client.Status(ctx, unknown); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job status error = %v, want a 404", err)
	}
	if _, err := env.client.Result(ctx, unknown); err == nil {
		t.Error("unknown job result returned no error")
	}

	ack, err := env.client.Submit(ctx, connectivitySpec([]int{6}, []float64{0.9}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := env.client.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sweepserve.StateFailed {
		t.Fatalf("sabotaged job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deliberate mid-sweep failure") {
		t.Errorf("failed job's status error %q does not surface the cause", st.Error)
	}
	if _, err := env.client.Result(ctx, ack.ID); err == nil {
		t.Error("failed job's result returned no error")
	}
	if _, err := env.client.CSV(ctx, ack.ID); err == nil {
		t.Error("failed job's CSV returned no error")
	}

	specErr := &sweepserve.SpecError{Field: "trials", Msg: "must be positive"}
	if msg := specErr.Error(); !strings.Contains(msg, "trials") || !strings.Contains(msg, "must be positive") {
		t.Errorf("SpecError.Error() = %q", msg)
	}

	// A healthy server still answers healthz while jobs fail.
	resp, err := env.http.Client().Get(env.http.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestStoreRoundTripAcrossKinds: points of different kinds and labels under
// one journal file stay separate — a kstar point never satisfies a
// connectivity lookup, even at identical grid coordinates.
func TestStoreSeparatesKindsAndLabels(t *testing.T) {
	dir := t.TempDir()
	store, err := sweepserve.OpenStore(dir + "/shared.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	env := newEnv(t, sweepserve.Options{Store: store})
	ctx := context.Background()

	// Two kinds over the same (q, p) coordinates.
	if _, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
		Kind: sweepserve.KindKStar, Sensors: 80, Pool: 400,
		Trials: testTrials, Seed: testSeed,
		Grid: sweepserve.GridSpec{Qs: []int{1}, Ps: []float64{0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.client.RunProportion(ctx, sweepserve.JobSpec{
		Kind: sweepserve.KindConnectivity, Sensors: 80, Pool: 400,
		Trials: testTrials, Seed: testSeed,
		Grid: sweepserve.GridSpec{Ks: []int{9}, Qs: []int{1}, Ps: []float64{0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Points != 2 || st.Hits != 0 {
		t.Errorf("store stats %+v: want 2 distinct points, 0 cross-kind hits", st)
	}
}

// TestResultRoundTripsThroughJSON: the client-side reconstruction is exact —
// Proportions() rebuilt from the wire equals the engine's structs, and the
// derived estimate columns agree with the raw counts.
func TestResultRoundTripsThroughJSON(t *testing.T) {
	env := newEnv(t, sweepserve.Options{})
	ctx := context.Background()
	ack, err := env.client.Submit(ctx, connectivitySpec([]int{6, 9}, []float64{0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.client.Wait(ctx, ack.ID); err != nil {
		t.Fatal(err)
	}
	jr, err := env.client.Result(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range jr.Points {
		if p.Trials != testTrials {
			t.Errorf("point %+v trials %d, want %d", p, p.Trials, testTrials)
		}
		if want := float64(p.Successes) / float64(p.Trials); p.Estimate != want {
			t.Errorf("point estimate %v does not equal successes/trials %v", p.Estimate, want)
		}
		if p.Lo > p.Estimate || p.Hi < p.Estimate {
			t.Errorf("interval [%v, %v] does not bracket estimate %v", p.Lo, p.Hi, p.Estimate)
		}
	}
	var buf bytes.Buffer
	if err := jr.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("CSV line count %d, want 3 (header + 2 points)", got)
	}
}
