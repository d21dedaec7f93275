package qcomposite

import (
	"context"
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// invalidModel fails Validate (ring above pool).
var invalidModel = Model{N: 100, K: 200, P: 100, Q: 2, ChannelOn: 0.5}

func TestErrorPropagationThroughFacade(t *testing.T) {
	ctx := context.Background()
	if _, err := invalidModel.KeyShareProbability(); err == nil {
		t.Error("KeyShareProbability on invalid model: want error")
	}
	if _, err := invalidModel.EdgeProbability(); err == nil {
		t.Error("EdgeProbability on invalid model: want error")
	}
	if _, err := invalidModel.Alpha(1); err == nil {
		t.Error("Alpha on invalid model: want error")
	}
	if _, err := invalidModel.TheoreticalKConnProb(1); err == nil {
		t.Error("TheoreticalKConnProb on invalid model: want error")
	}
	if _, err := invalidModel.TheoreticalMinDegProb(1); err == nil {
		t.Error("TheoreticalMinDegProb on invalid model: want error")
	}
	if _, err := invalidModel.ExpectedDegree(); err == nil {
		t.Error("ExpectedDegree on invalid model: want error")
	}
	if _, err := invalidModel.PoissonDegreeCountMean(0); err == nil {
		t.Error("PoissonDegreeCountMean on invalid model: want error")
	}
	if _, err := invalidModel.Sample(rng.New(1)); err == nil {
		t.Error("Sample on invalid model: want error")
	}
	if _, err := invalidModel.EstimateKConnectivity(ctx, 1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("EstimateKConnectivity on invalid model: want error")
	}
	if _, err := invalidModel.EstimateMinDegreeAtLeast(ctx, 1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("EstimateMinDegreeAtLeast on invalid model: want error")
	}
	if _, err := invalidModel.DegreeCountDistribution(ctx, 1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("DegreeCountDistribution on invalid model: want error")
	}
	// Every graph has minimum degree ≥ −1 and is (−1)-connected, so a
	// negative level must be rejected rather than estimated as P = 1.
	valid := Model{N: 50, K: 10, P: 100, Q: 1, ChannelOn: 0.5}
	if _, err := valid.EstimateMinDegreeAtLeast(ctx, -1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("EstimateMinDegreeAtLeast with k = -1: want error")
	}
	if _, err := valid.EstimateKConnectivity(ctx, -1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("EstimateKConnectivity with k = -1: want error")
	}
}

func TestAlphaSmallNErrors(t *testing.T) {
	m := Model{N: 2, K: 5, P: 100, Q: 1, ChannelOn: 1}
	if _, err := m.Alpha(1); err == nil {
		t.Error("Alpha with n=2: want error (needs n ≥ 3)")
	}
	if _, err := m.TheoreticalKConnProb(1); err == nil {
		t.Error("TheoreticalKConnProb with n=2: want error")
	}
}

func TestPoissonDegreeCountMean(t *testing.T) {
	m := Model{N: 1000, K: 43, P: 10000, Q: 2, ChannelOn: 0.5}
	tProb, err := m.EdgeProbability()
	if err != nil {
		t.Fatal(err)
	}
	// λ_0 = n·e^{−n·t}.
	got, err := m.PoissonDegreeCountMean(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * math.Exp(-1000*tProb)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("λ_0 = %v, want %v", got, want)
	}
	// λ sums over h to ≈ n (the expected number of nodes!).
	sum := 0.0
	for h := 0; h < 100; h++ {
		l, err := m.PoissonDegreeCountMean(h)
		if err != nil {
			t.Fatal(err)
		}
		sum += l
	}
	if math.Abs(sum-1000) > 1 {
		t.Errorf("Σ_h λ_{n,h} = %v, want ≈ n = 1000", sum)
	}
	if _, err := m.PoissonDegreeCountMean(-1); err == nil {
		t.Error("negative h: want error")
	}
}

func TestEstimateConfigValidationPropagates(t *testing.T) {
	m := Model{N: 50, K: 10, P: 100, Q: 1, ChannelOn: 0.5}
	if _, err := m.EstimateConnectivity(context.Background(), EstimateConfig{Trials: 0}); err == nil {
		t.Error("zero trials: want error")
	}
	if _, err := m.EstimateKConnectivity(context.Background(), 1, EstimateConfig{Trials: -1}); err == nil {
		t.Error("negative trials: want error")
	}
}
