package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// TestConnectivityTrialAllocBudget is the alloc-budget regression gate on
// the trial loops (the BenchmarkDeployPipeline hot paths): after warm-up, a
// reused Deployer must run every deployment mode with ZERO allocations per
// trial — the CSR path (deploy + IsConnected; rng.Reseed removed its last
// allocation, the per-Deploy generator; the seed state ran it at ≈ 2,020
// allocs per trial), the streaming path (DeployConnectivity), the
// streaming degree path (DeployDegreeStats, the degree accumulator riding
// beside the union-find), the degree count (DegreeCountRand, a full draw
// into the degree counters alone) and the verdict-only trials
// (KConnectedRand at k = 1 and k = 2, whose prefix check builds a CSR graph
// through the reused builder, and MinDegreeAtLeastRand). Every mode runs
// through the one row consumer, bound once per Deployer, which keeps the
// channel.RowDraw crossing allocation-free. Every mode runs on
// each way a row is drawn: the native on/off and full-visibility rows and
// the grouped rows of a disk and a labelled two-class heterogeneous
// channel, on a fresh Deployer and on one retargeted from another
// configuration.
func TestConnectivityTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs the full n=1000 deployment")
	}
	scheme, err := keys.NewQComposite(10000, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := keys.NewHeterogeneous(10000, 2, []keys.Class{{Mu: 0.5, RingSize: 41}, {Mu: 0.5, RingSize: 60}})
	if err != nil {
		t.Fatal(err)
	}
	// The on/off arms keep the bare mode names; the others are prefixed
	// with their channel. The disk and heterogeneous draws keep their
	// scratch in a sync.Pool, which the race detector empties at random,
	// so those arms run without it only.
	arms := []struct {
		prefix string
		cfg    Config
	}{
		{"", Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 0.5}}},
		{"always-on/", Config{Sensors: 500, Scheme: scheme, Channel: channel.AlwaysOn{}}},
		{"disk/", Config{Sensors: 500, Scheme: scheme, Channel: channel.Disk{Radius: 0.2}}},
		{"hetero/", Config{Sensors: 500, Scheme: hetero, Channel: channel.UniformHeterOnOff(2, 0.5)}},
	}
	// Every arm runs twice: on a fresh Deployer, and (prefixed
	// "retargeted/") on one Deployer that reaches each configuration
	// retargeted from the arm before, as DeployerPool.Get hands out a
	// Deployer another configuration returned. The race detector slows
	// this single-goroutine test severalfold, so under it only the fresh
	// arms run.
	moved := newDeployer(arms[len(arms)-1].cfg)
	for _, arm := range arms {
		if raceEnabled && (arm.prefix == "disk/" || arm.prefix == "hetero/") {
			continue
		}
		d, err := NewDeployer(arm.cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireTrialsAllocFree(t, arm.prefix, d)
		if !raceEnabled {
			moved.retarget(arm.cfg)
			requireTrialsAllocFree(t, "retargeted/"+arm.prefix, moved)
		}
	}
}

// requireTrialsAllocFree runs every deployment mode on d, each as the
// subtest prefix+mode, and fails unless each allocates nothing per trial
// after warm-up.
func requireTrialsAllocFree(t *testing.T, prefix string, d *Deployer) {
	t.Helper()
	seed := uint64(0)
	var r rng.Rand
	verdict := func(v func(*rng.Rand, int) (bool, error), k int) func() {
		return func() {
			seed++
			r.Reseed(seed)
			if _, err := v(&r, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	trials := map[string]func(){
		"csr": func() {
			seed++
			net, err := d.Deploy(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.IsConnected(); err != nil {
				t.Fatal(err)
			}
		},
		"streaming": func() {
			seed++
			if _, err := d.DeployConnectivity(seed); err != nil {
				t.Fatal(err)
			}
		},
		"streaming-degrees": func() {
			seed++
			if _, err := d.DeployDegreeStats(seed, 2); err != nil {
				t.Fatal(err)
			}
		},
		"degree-count": func() {
			seed++
			r.Reseed(seed)
			if _, err := d.DegreeCountRand(&r, 2); err != nil {
				t.Fatal(err)
			}
		},
		"verdict-kconn-1":   verdict(d.KConnectedRand, 1),
		"verdict-kconn-2":   verdict(d.KConnectedRand, 2),
		"verdict-mindegree": verdict(d.MinDegreeAtLeastRand, 2),
	}
	for name, trial := range trials {
		t.Run(prefix+name, func(t *testing.T) {
			// Warm up so every amortized buffer has grown to its working size.
			for i := 0; i < 8; i++ {
				trial()
			}
			if avg := testing.AllocsPerRun(20, trial); avg != 0 {
				t.Errorf("%s%s trial allocates %.1f allocs/run, want 0", prefix, name, avg)
			}
		})
	}
}
