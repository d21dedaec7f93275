package experiment

// Kill/resume equivalence: a sweep cancelled after M of N points, resumed
// from its checkpoint journal, must produce results bit-identical to an
// uninterrupted run — across every sweep variant and every sharding level.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

var (
	resumeTestGrid = Grid{Ks: []int{3, 5}, Qs: []int{1, 2}, Ps: []float64{0.25, 0.75}, Xs: []float64{0, 1}}
	resumeTestCfg  = SweepConfig{Trials: 30, Workers: 2, Seed: 19}
)

// connStatsResumeBuild is the deployment behind the connstats resume
// variant: a tiny network whose parameters track the grid point.
func connStatsResumeBuild(pt GridPoint) (wsn.Config, error) {
	scheme, err := keys.NewQComposite(200, pt.K+pt.Q, pt.Q)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: 40, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
}

// resumeVariant runs one sweep variant with the given config, returning the
// results as an any for bit-identical comparison and the number of build
// calls the run made (cached points never call build).
type resumeVariant struct {
	name string
	run  func(ctx context.Context, cfg SweepConfig, builds *atomic.Int64) (any, error)
}

func resumeVariants() []resumeVariant { return resumeVariantsOn(resumeTestGrid) }

// resumeVariantsOn is resumeVariants over another grid.
func resumeVariantsOn(grid Grid) []resumeVariant {
	return []resumeVariant{
		{name: "proportion", run: func(ctx context.Context, cfg SweepConfig, builds *atomic.Int64) (any, error) {
			res, err := SweepProportion(ctx, grid, cfg,
				func(pt GridPoint) (montecarlo.Trial, error) {
					builds.Add(1)
					return func(trial int, r *rng.Rand) (bool, error) {
						return r.Float64() < pt.P, nil
					}, nil
				})
			return res, err
		}},
		{name: "mean", run: func(ctx context.Context, cfg SweepConfig, builds *atomic.Int64) (any, error) {
			res, err := SweepMean(ctx, grid, cfg,
				func(pt GridPoint) (montecarlo.Sample, error) {
					builds.Add(1)
					return func(trial int, r *rng.Rand) (float64, error) {
						return r.Float64()*float64(pt.K) + pt.X, nil
					}, nil
				})
			return res, err
		}},
		{name: "meanvec", run: func(ctx context.Context, cfg SweepConfig, builds *atomic.Int64) (any, error) {
			res, err := SweepMeanVec(ctx, grid, cfg, 2,
				func(pt GridPoint) (montecarlo.SampleVec, error) {
					builds.Add(1)
					return func(trial int, r *rng.Rand) ([]float64, error) {
						u := r.Float64()
						return []float64{u * float64(pt.Q), u + pt.P}, nil
					}, nil
				})
			return res, err
		}},
		{name: "connstats", run: func(ctx context.Context, cfg SweepConfig, builds *atomic.Int64) (any, error) {
			res, err := SweepConnStats(ctx, grid, cfg,
				[]ConnStat{ConnStatConnected, ConnStatGiantFraction},
				func(pt GridPoint) (wsn.Config, error) {
					builds.Add(1)
					return connStatsResumeBuild(pt)
				})
			return res, err
		}},
	}
}

// killingJournal is a checkpoint sink that cancels the sweep once M point
// records have landed — the deterministic stand-in for a mid-grid kill. The
// record that triggers the cancellation is still persisted, exactly like a
// real kill arriving after the Write returned.
type killingJournal struct {
	buf    bytes.Buffer
	points int
	after  int
	cancel context.CancelFunc
}

func (k *killingJournal) Write(p []byte) (int, error) {
	n, err := k.buf.Write(p)
	if bytes.Contains(p, []byte(`"point"`)) {
		k.points++
		if k.points == k.after {
			k.cancel()
		}
	}
	return n, err
}

func TestKillResumeBitIdentical(t *testing.T) {
	total := resumeTestGrid.Len()
	for _, variant := range resumeVariants() {
		var cleanBuilds atomic.Int64
		clean, err := variant.run(context.Background(), resumeTestCfg, &cleanBuilds)
		if err != nil {
			t.Fatalf("%s: clean sweep failed: %v", variant.name, err)
		}
		for _, pw := range shardCounts() {
			// Cap shards at half the grid so every shard owns several points:
			// the mid-grid kill then reliably strikes while points are still
			// pending (a shard cannot pull its next point until its previous
			// write — serialized behind the cancelling one — completed).
			if pw > total/2 {
				pw = total / 2
			}
			t.Run(fmt.Sprintf("%s/pointWorkers=%d", variant.name, pw), func(t *testing.T) {
				cfg := resumeTestCfg
				cfg.PointWorkers = pw

				// Phase 1: run with a checkpoint journal and kill the sweep
				// after 3 of the points have landed.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				journal := &killingJournal{after: 3, cancel: cancel}
				killCfg := cfg
				killCfg.Checkpoint = journal
				var killBuilds atomic.Int64
				if _, err := variant.run(ctx, killCfg, &killBuilds); err == nil {
					t.Fatal("killed sweep unexpectedly succeeded")
				}
				persisted := journal.points
				if persisted >= total {
					t.Fatalf("kill persisted all %d points; cancellation never struck mid-grid", total)
				}

				// Phase 2: resume from the journal; the merged results must be
				// bit-identical to the uninterrupted run and the cached points
				// must not be recomputed.
				resumeCfg := cfg
				resumeCfg.Resume = bytes.NewReader(journal.buf.Bytes())
				var resumeBuilds atomic.Int64
				got, err := variant.run(context.Background(), resumeCfg, &resumeBuilds)
				if err != nil {
					t.Fatalf("resumed sweep failed: %v", err)
				}
				if !reflect.DeepEqual(got, clean) {
					t.Fatalf("resumed sweep differs from clean run\nclean:   %+v\nresumed: %+v", clean, got)
				}
				if want := int64(total - persisted); resumeBuilds.Load() > want {
					t.Errorf("resume rebuilt %d points, want at most %d (%d journaled)",
						resumeBuilds.Load(), want, persisted)
				}
			})
		}
	}
}

// TestResumeSameFileRoundTrip models the intended CLI usage: checkpoint and
// resume through the SAME journal, appending across several interrupted
// runs (so the journal holds multiple headers and possibly duplicate
// points).
func TestResumeSameFileRoundTrip(t *testing.T) {
	cfg := resumeTestCfg
	var cleanBuilds atomic.Int64
	variant := resumeVariants()[0]
	clean, err := variant.run(context.Background(), cfg, &cleanBuilds)
	if err != nil {
		t.Fatal(err)
	}

	var journal bytes.Buffer
	for kill := 2; ; kill += 2 {
		ctx, cancel := context.WithCancel(context.Background())
		killer := &killingJournal{after: kill, cancel: cancel}
		runCfg := cfg
		if journal.Len() > 0 {
			runCfg.Resume = bytes.NewReader(journal.Bytes())
		}
		runCfg.Checkpoint = killer
		var builds atomic.Int64
		got, err := variant.run(ctx, runCfg, &builds)
		journal.Write(killer.buf.Bytes())
		cancel()
		if err != nil {
			continue // killed again; resume on the next lap
		}
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("multi-resume sweep differs from clean run\nclean: %+v\ngot:   %+v", clean, got)
		}
		return
	}
}

// journalFor runs one complete checkpointed sweep and returns its journal.
func journalFor(t *testing.T, cfg SweepConfig) (*bytes.Buffer, any) {
	t.Helper()
	var journal bytes.Buffer
	ckCfg := cfg
	ckCfg.Checkpoint = &journal
	var builds atomic.Int64
	res, err := resumeVariants()[0].run(context.Background(), ckCfg, &builds)
	if err != nil {
		t.Fatalf("checkpointed sweep failed: %v", err)
	}
	return &journal, res
}

func TestResumeToleratesTruncatedFinalLine(t *testing.T) {
	journal, clean := journalFor(t, resumeTestCfg)
	// Chop the final record in half, as a kill mid-write would.
	data := bytes.TrimRight(journal.Bytes(), "\n")
	cut := data[:len(data)-len(data)/8]
	if cut[len(cut)-1] == '\n' {
		t.Fatal("test bug: truncation landed on a line boundary")
	}

	resumeCfg := resumeTestCfg
	resumeCfg.Resume = bytes.NewReader(cut)
	var builds atomic.Int64
	got, err := resumeVariants()[0].run(context.Background(), resumeCfg, &builds)
	if err != nil {
		t.Fatalf("resume from truncated journal failed: %v", err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatal("resume from truncated journal differs from clean run")
	}
	if builds.Load() == 0 {
		t.Error("truncated point was not recomputed")
	}
}

func TestResumeRejectsCorruptMidFileRecord(t *testing.T) {
	journal, _ := journalFor(t, resumeTestCfg)
	lines := bytes.Split(bytes.TrimRight(journal.Bytes(), "\n"), []byte("\n"))
	lines[2] = lines[2][:len(lines[2])/2] // corrupt a NON-final record
	resumeCfg := resumeTestCfg
	resumeCfg.Resume = bytes.NewReader(bytes.Join(lines, []byte("\n")))
	var builds atomic.Int64
	_, err := resumeVariants()[0].run(context.Background(), resumeCfg, &builds)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt mid-file record not rejected: %v", err)
	}
}

func TestResumeRejectsDifferentSweep(t *testing.T) {
	journal, _ := journalFor(t, resumeTestCfg)
	mismatches := map[string]func(*SweepConfig){
		"seed":   func(c *SweepConfig) { c.Seed++ },
		"trials": func(c *SweepConfig) { c.Trials++ },
		"label":  func(c *SweepConfig) { c.JournalLabel = "other experiment" },
	}
	for name, mutate := range mismatches {
		t.Run(name, func(t *testing.T) {
			cfg := resumeTestCfg
			mutate(&cfg)
			cfg.Resume = bytes.NewReader(journal.Bytes())
			var builds atomic.Int64
			_, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
			if err == nil || !strings.Contains(err.Error(), "different sweep") {
				t.Fatalf("journal for mismatched %s accepted: %v", name, err)
			}
		})
	}
	// A different sweep KIND over the same grid/config must be rejected too.
	// The kind is part of the fingerprint, and since same-label sections with
	// a different kind are a label collision, this now fails with the sharper
	// reused-label diagnosis rather than the generic different-sweep one.
	t.Run("kind", func(t *testing.T) {
		cfg := resumeTestCfg
		cfg.Resume = bytes.NewReader(journal.Bytes())
		_, err := SweepMean(context.Background(), resumeTestGrid, cfg,
			func(pt GridPoint) (montecarlo.Sample, error) {
				return func(trial int, r *rng.Rand) (float64, error) { return 0, nil }, nil
			})
		if err == nil || !strings.Contains(err.Error(), "reused label") {
			t.Fatalf("proportion journal accepted by mean sweep: %v", err)
		}
	})
}

func TestResumeRejectsSeedMismatchedPoint(t *testing.T) {
	journal, _ := journalFor(t, resumeTestCfg)
	// Tamper with one point's recorded seed. The header line (which now also
	// carries an informational seed field) must stay intact: only point-level
	// seeds are cross-checked against the fingerprint.
	headerEnd := bytes.IndexByte(journal.Bytes(), '\n') + 1
	tampered := append([]byte(nil), journal.Bytes()[:headerEnd]...)
	tampered = append(tampered, bytes.Replace(journal.Bytes()[headerEnd:], []byte(`"seed":`), []byte(`"seed":1`), 1)...)
	cfg := resumeTestCfg
	cfg.Resume = bytes.NewReader(tampered)
	var builds atomic.Int64
	_, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("tampered point seed accepted: %v", err)
	}
}

func TestResumeRejectsHeaderlessJournal(t *testing.T) {
	journal, _ := journalFor(t, resumeTestCfg)
	lines := bytes.SplitN(journal.Bytes(), []byte("\n"), 2)
	cfg := resumeTestCfg
	cfg.Resume = bytes.NewReader(lines[1]) // drop the header line
	var builds atomic.Int64
	_, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("headerless journal accepted: %v", err)
	}
}

func TestResumeEmptyJournalRunsInFull(t *testing.T) {
	cfg := resumeTestCfg
	cfg.Resume = bytes.NewReader(nil)
	var builds atomic.Int64
	_, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
	if err != nil {
		t.Fatalf("empty resume journal rejected: %v", err)
	}
	if builds.Load() != int64(resumeTestGrid.Len()) {
		t.Errorf("empty journal: %d builds, want %d", builds.Load(), resumeTestGrid.Len())
	}
}

// TestResumeSkipsForeignSections: one journal file can hold several sweeps'
// sections (commands that run multiple sweeps checkpoint them all to one
// file); each sweep resumes only its own sections and skips the others.
func TestResumeSkipsForeignSections(t *testing.T) {
	otherCfg := resumeTestCfg
	otherCfg.JournalLabel = "other sweep"
	foreign, _ := journalFor(t, otherCfg)
	mine, clean := journalFor(t, resumeTestCfg)
	var combined bytes.Buffer
	combined.Write(foreign.Bytes())
	combined.Write(mine.Bytes())

	cfg := resumeTestCfg
	cfg.Resume = bytes.NewReader(combined.Bytes())
	var builds atomic.Int64
	got, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
	if err != nil {
		t.Fatalf("resume from multi-section journal failed: %v", err)
	}
	if builds.Load() != 0 {
		t.Errorf("multi-section resume rebuilt %d points, want 0", builds.Load())
	}
	if !reflect.DeepEqual(got, clean) {
		t.Error("multi-section resume differs from clean run")
	}
}

// errWriter fails every write, modelling a full disk under checkpointing.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestCheckpointWriteFailureSurfaces(t *testing.T) {
	cfg := resumeTestCfg
	cfg.Checkpoint = errWriter{}
	var builds atomic.Int64
	_, err := resumeVariants()[0].run(context.Background(), cfg, &builds)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("checkpoint write failure not surfaced: %v", err)
	}
}

// TestConcurrentJournalStress hammers one shared journal from every shard of
// a wide sweep; under -race this doubles as the data-race check for
// journalWriter, and afterwards the journal must parse whole and resume a
// zero-build run.
func TestConcurrentJournalStress(t *testing.T) {
	grid := Grid{Ks: []int{1, 2, 3, 4}, Qs: []int{1, 2, 3}, Ps: []float64{0.2, 0.5, 0.8}}
	cfg := SweepConfig{Trials: 8, Workers: 2, PointWorkers: 8, Seed: 5}
	var journal bytes.Buffer
	ckCfg := cfg
	ckCfg.Checkpoint = &journal
	res, err := SweepProportion(context.Background(), grid, ckCfg,
		func(pt GridPoint) (montecarlo.Trial, error) {
			return func(trial int, r *rng.Rand) (bool, error) {
				return r.Float64() < pt.P, nil
			}, nil
		})
	if err != nil {
		t.Fatalf("stress sweep failed: %v", err)
	}
	// Every line must parse: concurrent checkpointing may not interleave
	// records.
	resumeCfg := cfg
	resumeCfg.Resume = bytes.NewReader(journal.Bytes())
	var builds atomic.Int64
	got, err := SweepProportion(context.Background(), grid, resumeCfg,
		func(pt GridPoint) (montecarlo.Trial, error) {
			builds.Add(1)
			return func(trial int, r *rng.Rand) (bool, error) {
				return r.Float64() < pt.P, nil
			}, nil
		})
	if err != nil {
		t.Fatalf("resume after stress failed: %v", err)
	}
	if builds.Load() != 0 {
		t.Errorf("full journal resumed with %d rebuilds, want 0", builds.Load())
	}
	if !reflect.DeepEqual(got, res) {
		t.Error("journal round trip changed results")
	}
}
