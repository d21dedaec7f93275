package wsn

import (
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/keys"
)

func TestRevokeNodeKeysBasics(t *testing.T) {
	net := deployTest(t, 51)
	ringSize := keys.MaxRingSize(net.Scheme())
	before := net.FullSecureTopology().M()

	torn, err := net.RevokeNodeKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	if net.Alive(0) {
		t.Error("revoked sensor still alive")
	}
	if got := net.RevokedKeyCount(); got != ringSize {
		t.Errorf("RevokedKeyCount = %d, want %d", got, ringSize)
	}
	after := net.FullSecureTopology().M()
	if after > before {
		t.Errorf("links grew after revocation: %d -> %d", before, after)
	}
	if torn < 0 {
		t.Errorf("torn = %d", torn)
	}

	// Every surviving link must have ≥ q unrevoked shared keys, and link
	// keys must be re-derived from the surviving set only.
	q := net.Scheme().RequiredOverlap()
	for _, l := range net.Links() {
		if len(l.SharedKeys) < q {
			t.Fatalf("surviving link (%d,%d) has only %d shared keys", l.A, l.B, len(l.SharedKeys))
		}
		ring0, err := net.Ring(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range l.SharedKeys {
			if slices.Contains(ring0.IDs(), k) {
				t.Fatalf("surviving link (%d,%d) still uses revoked key %d", l.A, l.B, k)
			}
		}
		if l.Key != keys.DeriveLinkKey(l.SharedKeys) {
			t.Fatalf("link (%d,%d) key not re-derived", l.A, l.B)
		}
	}
}

func TestRevokeNodeKeysOutOfRange(t *testing.T) {
	net := deployTest(t, 52)
	if _, err := net.RevokeNodeKeys(int32(net.Sensors())); err == nil {
		t.Error("out of range: want error")
	}
	if _, err := net.RevokeNodeKeys(-1); err == nil {
		t.Error("negative: want error")
	}
}

func TestRevokeCumulative(t *testing.T) {
	net := deployTest(t, 53)
	if _, err := net.RevokeNodeKeys(0); err != nil {
		t.Fatal(err)
	}
	first := net.RevokedKeyCount()
	if _, err := net.RevokeNodeKeys(1, 2); err != nil {
		t.Fatal(err)
	}
	second := net.RevokedKeyCount()
	if second < first {
		t.Errorf("revoked count shrank: %d -> %d", first, second)
	}
	maxPossible := 3 * keys.MaxRingSize(net.Scheme())
	if second > maxPossible {
		t.Errorf("revoked %d keys, cannot exceed %d", second, maxPossible)
	}
	// Revoking an already-dead sensor is permitted (idempotent failure).
	if _, err := net.RevokeNodeKeys(0); err != nil {
		t.Errorf("re-revocation errored: %v", err)
	}
}

func TestRevocationImpact(t *testing.T) {
	net := deployTest(t, 54)
	imp0, err := net.Impact()
	if err != nil {
		t.Fatal(err)
	}
	if imp0.RevokedKeys != 0 {
		t.Errorf("initial RevokedKeys = %d", imp0.RevokedKeys)
	}
	ringSize := float64(keys.MaxRingSize(net.Scheme()))
	if imp0.EffectiveRingMean != ringSize {
		t.Errorf("initial EffectiveRingMean = %v, want %v", imp0.EffectiveRingMean, ringSize)
	}
	// Revoke a batch and confirm the effective ring shrinks and links drop.
	for id := int32(0); id < 10; id++ {
		if _, err := net.RevokeNodeKeys(id); err != nil {
			t.Fatal(err)
		}
	}
	imp1, err := net.Impact()
	if err != nil {
		t.Fatal(err)
	}
	if imp1.EffectiveRingMean >= ringSize {
		t.Errorf("EffectiveRingMean did not shrink: %v", imp1.EffectiveRingMean)
	}
	if imp1.SecureLinks > imp0.SecureLinks {
		t.Errorf("SecureLinks grew: %d -> %d", imp0.SecureLinks, imp1.SecureLinks)
	}
	if imp1.RevokedKeys != net.RevokedKeyCount() {
		t.Errorf("impact revoked keys mismatch")
	}
}

func TestRevocationSlidesDownFigure1(t *testing.T) {
	// The analytical reading: revoking keys reduces the effective K, so a
	// network dimensioned just above the connectivity threshold must
	// eventually disconnect as revocations accumulate.
	net := deployTest(t, 55)
	conn, err := net.IsConnected()
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Skip("network not connected at this seed")
	}
	disconnectedAt := -1
	for batch := 0; batch < 10; batch++ {
		for id := int32(batch * 5); id < int32(batch*5+5); id++ {
			if _, err := net.RevokeNodeKeys(id); err != nil {
				t.Fatal(err)
			}
		}
		imp, err := net.Impact()
		if err != nil {
			t.Fatal(err)
		}
		if !imp.Connected {
			disconnectedAt = batch
			break
		}
	}
	// With 50 of 120 sensors revoked the effective rings are far below the
	// threshold; the network must have disconnected somewhere along the way.
	if disconnectedAt == -1 {
		imp, err := net.Impact()
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("network still connected after heavy revocation (impact %+v)", imp)
	}
}
