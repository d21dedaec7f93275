package wsn

import (
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

// sharedOracle returns the keys rings a and b share, ascending: the sorted
// merge of their ascending copies, whatever order the rings keep.
func sharedOracle(a, b keys.Ring) []keys.ID {
	x, y := a.IDs(), b.IDs()
	shared := []keys.ID{}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			shared = append(shared, x[i])
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return shared
}

// linkTableFingerprint folds every usable link of the network — endpoints,
// shared keys in the order ForEachLink hands them out, and the link key
// Links derives — into one hash.
func linkTableFingerprint(net *Network) uint64 {
	h := uint64(0)
	net.ForEachLink(func(a, b int32, shared []keys.ID) bool {
		h = hashMix(h, uint64(uint32(a))<<32|uint64(uint32(b)))
		for _, k := range shared {
			h = hashMix(h, uint64(uint32(k)))
		}
		return true
	})
	for _, l := range net.Links() {
		for i := 0; i < len(l.Key); i += 8 {
			x := uint64(0)
			for _, c := range l.Key[i : i+8] {
				x = x<<8 | uint64(c)
			}
			h = hashMix(h, x)
		}
	}
	return h
}

// TestLinkSharedKeys pins the link table: on sparse and dense uniform rings
// and on two-class rings, before and after revoking two sensors' keys,
// every link's SharedKeys are strictly ascending and equal the surviving
// keys of the merge oracle, ForEachLink hands out the same keys as Links,
// and the table's fingerprint — link keys included — is the one the
// sorted-merge implementation recorded.
func TestLinkSharedKeys(t *testing.T) {
	qc := func(pool, ring, q int) keys.Scheme {
		s, err := keys.NewQComposite(pool, ring, q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hetero, err := keys.NewHeterogeneous(2000, 2, []keys.Class{{Mu: 0.3, RingSize: 20}, {Mu: 0.7, RingSize: 45}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		cfg           Config
		before, after uint64
	}{
		{"sparse/P=1e4,K=60,q=2", Config{Sensors: 300, Scheme: qc(10000, 60, 2), Channel: channel.OnOff{P: 0.5}, Seed: 1}, 0x123521e72955e52f, 0x8c37d72172e3f5df},
		{"dense/P=512,K=32,q=2", Config{Sensors: 200, Scheme: qc(512, 32, 2), Channel: channel.OnOff{P: 0.1}, Seed: 2}, 0x5fae38001eaa54e4, 0x2d48ebdbc9e647ed},
		{"heterogeneous", Config{Sensors: 300, Scheme: hetero, Channel: channel.OnOff{P: 0.6}, Seed: 3}, 0x502cf898123caf8a, 0x3d18bd9171903c56},
	} {
		net, err := Deploy(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for stage, want := range []uint64{tc.before, tc.after} {
			if stage == 1 {
				if _, err := net.RevokeNodeKeys(0, 1); err != nil {
					t.Fatal(err)
				}
			}
			links := net.Links()
			if len(links) == 0 {
				t.Fatalf("%s: no links", tc.name)
			}
			i := 0
			net.ForEachLink(func(a, b int32, shared []keys.ID) bool {
				if l := links[i]; l.A != a || l.B != b || !slices.Equal(l.SharedKeys, shared) {
					t.Fatalf("%s stage %d: ForEachLink (%d,%d) %v, Links (%d,%d) %v", tc.name, stage, a, b, shared, l.A, l.B, l.SharedKeys)
				}
				i++
				return true
			})
			for _, l := range links {
				ra, _ := net.Ring(l.A)
				rb, _ := net.Ring(l.B)
				want := []keys.ID{}
				for _, k := range sharedOracle(ra, rb) {
					if !revokedContains(net, k) {
						want = append(want, k)
					}
				}
				if !slices.Equal(l.SharedKeys, want) {
					t.Fatalf("%s stage %d: link (%d,%d) shared %v, want %v", tc.name, stage, l.A, l.B, l.SharedKeys, want)
				}
			}
			if got := linkTableFingerprint(net); got != want {
				t.Errorf("%s stage %d: link table fingerprint %#x, pinned %#x", tc.name, stage, got, want)
			}
		}
	}
}

// BenchmarkLinkSnapshot measures ForEachLink's materialization of every
// link's shared keys at the sweepd campaign shape (n = 400, P = 4000,
// K = 52, q = 2, p = 1), reported per link. Each iteration drops the
// table and collects it again on the same deployment.
func BenchmarkLinkSnapshot(b *testing.B) {
	scheme, err := keys.NewQComposite(4000, 52, 2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := Deploy(Config{Sensors: 400, Scheme: scheme, Channel: channel.OnOff{P: 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	links, shared := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.invalidateLinks()
		links, shared = 0, 0
		net.ForEachLink(func(_, _ int32, sharedKeys []keys.ID) bool {
			links++
			shared += len(sharedKeys)
			return true
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links), "ns/link")
	b.ReportMetric(float64(shared)/float64(links), "keys/link")
}
