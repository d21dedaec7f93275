package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// verdictModels are the channel models the verdict tests cover, each with
// the scheme it deploys under: every row-major model, both disk variants
// and a two-class heterogeneous channel. The heterogeneous one joins two
// dense classes by few channels, so its networks often reach min degree k
// without being k-connected.
func verdictModels(t testing.TB) map[string]Config {
	t.Helper()
	scheme, err := keys.NewQComposite(2000, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := keys.NewHeterogeneous(2000, 1, []keys.Class{{Mu: 0.6, RingSize: 40}, {Mu: 0.4, RingSize: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"onoff-0":    {Scheme: scheme, Channel: channel.OnOff{}},
		"onoff-0.2":  {Scheme: scheme, Channel: channel.OnOff{P: 0.2}},
		"onoff-0.5":  {Scheme: scheme, Channel: channel.OnOff{P: 0.5}},
		"onoff-1":    {Scheme: scheme, Channel: channel.OnOff{P: 1}},
		"always-on":  {Scheme: scheme, Channel: channel.AlwaysOn{}},
		"disk":       {Scheme: scheme, Channel: channel.Disk{Radius: 0.3}},
		"disk-torus": {Scheme: scheme, Channel: channel.Disk{Radius: 0.3, Torus: true}},
		"heter-onoff": {Scheme: hetero, Channel: channel.HeterOnOff{P: [][]float64{
			{0.9, 0.01},
			{0.01, 0.9},
		}}},
	}
}

// csrVerdicts deploys the full network from seed and answers both verdicts
// on its CSR secure topology.
func csrVerdicts(t testing.TB, d *Deployer, seed uint64, k int) (kconn, minDeg bool) {
	t.Helper()
	n := d.cfg.Sensors
	net, err := d.DeployRand(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	kconn, err = net.IsKConnected(k)
	if err != nil {
		t.Fatal(err)
	}
	// An empty network vacuously has every degree ≥ k, the
	// DegreeStats.MinDegreeAtLeastK convention; its MinDegree() is 0.
	return kconn, n == 0 || net.FullSecureTopology().MinDegree() >= k
}

// streamVerdicts answers both verdicts through the verdict-only trials.
func streamVerdicts(t testing.TB, d *Deployer, seed uint64, k int) (kconn, minDeg bool) {
	t.Helper()
	kconn, err := d.KConnectedRand(rng.New(seed), k)
	if err != nil {
		t.Fatal(err)
	}
	minDeg, err = d.MinDegreeAtLeastRand(rng.New(seed), k)
	if err != nil {
		t.Fatal(err)
	}
	return kconn, minDeg
}

// TestVerdictsMatchCSR is the exactness gate of the verdict-only trials:
// over every channel model, sensor counts on both sides of the thresholds
// and levels k = 0..3, KConnectedRand equals DeployRand + IsKConnected and
// MinDegreeAtLeastRand equals MinDegree() >= k (vacuously true at n = 0)
// on the same stream. One
// Deployer serves both paths, so the test also covers state carried from
// one trial into the next.
func TestVerdictsMatchCSR(t *testing.T) {
	var answers [2][2]int // [kconn][minDeg] counts, so both outcomes show up
	for name, cfg := range verdictModels(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 3, 40, 200} {
				cfg.Sensors = n
				d, err := NewDeployer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k <= 3; k++ {
					for seed := uint64(0); seed < 4; seed++ {
						wantKC, wantMD := csrVerdicts(t, d, seed, k)
						gotKC, gotMD := streamVerdicts(t, d, seed, k)
						if gotKC != wantKC || gotMD != wantMD {
							t.Fatalf("n=%d k=%d seed=%d: verdicts (k-connected %t, min degree %t), CSR path (%t, %t)",
								n, k, seed, gotKC, gotMD, wantKC, wantMD)
						}
						answers[b2i(wantKC)][b2i(wantMD)]++
					}
				}
			}
		})
	}
	// k-connected implies min degree ≥ k, so [1][0] stays empty; the other
	// three outcomes must all occur or the table decides nothing.
	if answers[0][0] == 0 || answers[0][1] == 0 || answers[1][1] == 0 {
		t.Errorf("outcome counts [kconn][minDeg] = %v: some verdict never occurred", answers)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestVerdictExits pins which exit each kind of trial takes. Below the
// threshold, a row-major draw (disk ones included) stops at a passed
// sensor below degree k before its last row; a labelled two-class
// heterogeneous draw is not row-major, so it never takes that exit. On the
// plateau both verdicts stop on "yes".
func TestVerdictExits(t *testing.T) {
	sparse, err := keys.NewQComposite(2000, 6, 1) // mean secure degree ≈ 1.8 at p = 0.5
	if err != nil {
		t.Fatal(err)
	}
	sparseHetero, err := keys.NewHeterogeneous(2000, 1, []keys.Class{{Mu: 0.5, RingSize: 6}, {Mu: 0.5, RingSize: 6}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := keys.NewQComposite(500, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for _, tc := range []struct {
		name     string
		cfg      Config
		k        int
		want     bool
		wantExit verdictExit
	}{
		{"onoff-below", Config{Sensors: n, Scheme: sparse, Channel: channel.OnOff{P: 0.5}}, 1, false, exitNo},
		{"always-on-below", Config{Sensors: n, Scheme: sparse, Channel: channel.AlwaysOn{}}, 2, false, exitNo},
		{"disk-below", Config{Sensors: n, Scheme: sparse, Channel: channel.Disk{Radius: 0.3}}, 1, false, exitNo},
		{"heter-onoff-below", Config{Sensors: n, Scheme: sparseHetero, Channel: channel.UniformHeterOnOff(2, 0.5)}, 1, false, exitDrained},
		{"onoff-plateau-k1", Config{Sensors: n, Scheme: dense, Channel: channel.OnOff{P: 0.5}}, 1, true, exitYes},
		{"onoff-plateau-k3", Config{Sensors: n, Scheme: dense, Channel: channel.OnOff{P: 0.5}}, 3, true, exitYes},
		{"disk-plateau-k2", Config{Sensors: n, Scheme: dense, Channel: channel.Disk{Radius: 0.5, Torus: true}}, 2, true, exitYes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDeployer(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 5; seed++ {
				for _, verdict := range []func(*rng.Rand, int) (bool, error){d.KConnectedRand, d.MinDegreeAtLeastRand} {
					got, err := verdict(rng.New(seed), tc.k)
					if err != nil {
						t.Fatal(err)
					}
					if got != tc.want || d.tr.exit != tc.wantExit {
						t.Fatalf("seed %d: verdict %t with exit %d, want %t with exit %d", seed, got, d.tr.exit, tc.want, tc.wantExit)
					}
					if tc.wantExit == exitNo && d.tr.row >= n-1 {
						t.Fatalf("seed %d: no-exit at row %d, want it before the last row", seed, d.tr.row)
					}
				}
			}
		})
	}
}

// TestVerdictConventions covers the levels the verdicts decide without a
// draw and the rejected negative min-degree level.
func TestVerdictConventions(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployer(Config{Sensors: 3, Scheme: scheme, Channel: channel.AlwaysOn{}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	if ok, err := d.KConnectedRand(r, -1); err != nil || !ok {
		t.Errorf("KConnectedRand(k=-1) = %t, %v; want true (every graph is 0-connected)", ok, err)
	}
	if ok, err := d.KConnectedRand(r, 3); err != nil || ok {
		t.Errorf("KConnectedRand(k=n) = %t, %v; want false", ok, err)
	}
	if ok, err := d.MinDegreeAtLeastRand(r, 0); err != nil || !ok {
		t.Errorf("MinDegreeAtLeastRand(k=0) = %t, %v; want true", ok, err)
	}
	if _, err := d.MinDegreeAtLeastRand(r, -1); err == nil {
		t.Error("MinDegreeAtLeastRand(k=-1): want error")
	}
}

// FuzzVerdictMatchesCSR checks both verdicts against the CSR path on small
// random configurations: sensor count, level, ring size, overlap, channel
// model and its parameter all come from the fuzzer. The models include a
// labelled two-class heterogeneous channel, the one built-in draw that is
// not row-major.
func FuzzVerdictMatchesCSR(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(1), uint8(8), uint8(1), uint8(0), uint8(128))
	f.Add(uint64(2), uint8(60), uint8(2), uint8(12), uint8(1), uint8(1), uint8(255))
	f.Add(uint64(3), uint8(25), uint8(3), uint8(20), uint8(2), uint8(2), uint8(90))
	f.Add(uint64(4), uint8(40), uint8(2), uint8(10), uint8(1), uint8(3), uint8(200))
	f.Add(uint64(5), uint8(50), uint8(1), uint8(16), uint8(1), uint8(4), uint8(160))
	f.Fuzz(func(t *testing.T, seed uint64, n, k, ring, q, model, param uint8) {
		const pool = 200
		ringSize := 1 + int(ring)%40
		overlap := 1 + int(q)%3
		if overlap > ringSize {
			overlap = ringSize
		}
		var scheme keys.Scheme
		var err error
		x := float64(param) / 255
		var ch channel.Model
		switch model % 5 {
		case 0:
			ch = channel.OnOff{P: x}
		case 1:
			ch = channel.AlwaysOn{}
		case 2:
			ch = channel.Disk{Radius: x}
		case 3:
			ch = channel.Disk{Radius: x, Torus: true}
		default:
			// Two classes: the second holds half-size rings and reaches
			// the first over weaker channels.
			scheme, err = keys.NewHeterogeneous(pool, overlap, []keys.Class{
				{Mu: 0.5, RingSize: ringSize},
				{Mu: 0.5, RingSize: max(overlap, ringSize/2)},
			})
			ch = channel.HeterOnOff{P: [][]float64{{x, x / 2}, {x / 2, x}}}
		}
		if scheme == nil && err == nil {
			scheme, err = keys.NewQComposite(pool, ringSize, overlap)
		}
		if err != nil {
			t.Skip(err)
		}
		d, err := NewDeployer(Config{Sensors: int(n) % 80, Scheme: scheme, Channel: ch})
		if err != nil {
			t.Skip(err)
		}
		level := int(k) % 5
		wantKC, wantMD := csrVerdicts(t, d, seed, level)
		gotKC, gotMD := streamVerdicts(t, d, seed, level)
		if gotKC != wantKC || gotMD != wantMD {
			t.Fatalf("%s n=%d K=%d q=%d k=%d seed=%d: verdicts (%t, %t), CSR path (%t, %t)",
				ch.Name(), int(n)%80, ringSize, overlap, level, seed, gotKC, gotMD, wantKC, wantMD)
		}
	})
}
