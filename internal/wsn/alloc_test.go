package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// TestConnectivityTrialAllocBudget is the alloc-budget regression gate on
// the connectivity trial loops (the BenchmarkDeployPipeline hot paths):
// after warm-up, a reused Deployer must answer connectivity with ZERO
// allocations per trial — on the CSR path (deploy + IsConnected; rng.Reseed
// removed its last allocation, the per-Deploy generator; the seed state ran
// it at ≈ 2,020 allocs per trial), on the streaming path
// (DeployConnectivity, whose persistent yield closure keeps the
// channel.Model interface crossing allocation-free), and on the streaming
// degree path (DeployDegreeStats, same closure discipline with the degree
// accumulator riding beside the union-find), and on the verdict-only trials
// (KConnectedRand at k = 1 and k = 2, whose prefix check builds a CSR graph
// through the reused builder, and MinDegreeAtLeastRand).
func TestConnectivityTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs the full n=1000 deployment")
	}
	scheme, err := keys.NewQComposite(10000, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployer(Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
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
		"verdict-kconn-1":   verdict(d.KConnectedRand, 1),
		"verdict-kconn-2":   verdict(d.KConnectedRand, 2),
		"verdict-mindegree": verdict(d.MinDegreeAtLeastRand, 2),
	}
	for name, trial := range trials {
		t.Run(name, func(t *testing.T) {
			// Warm up so every amortized buffer has grown to its working size.
			for i := 0; i < 8; i++ {
				trial()
			}
			if avg := testing.AllocsPerRun(20, trial); avg != 0 {
				t.Errorf("%s connectivity trial allocates %.1f allocs/run, want 0", name, avg)
			}
		})
	}
}
