package wsn

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

func TestSimulateDiscoveryBasics(t *testing.T) {
	net := deployTest(t, 21)
	st, err := net.SimulateDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	n := net.Sensors()
	if st.Broadcasts != n {
		t.Errorf("Broadcasts = %d, want %d", st.Broadcasts, n)
	}
	ringSize := keys.MaxRingSize(net.Scheme())
	wantBroadcastBytes := int64(n) * int64(headerBytes+ringSize*keyIDBytes)
	if st.BroadcastBytes != wantBroadcastBytes {
		t.Errorf("BroadcastBytes = %d, want %d", st.BroadcastBytes, wantBroadcastBytes)
	}
	if st.EstablishedLinks != net.FullSecureTopology().M() {
		t.Errorf("EstablishedLinks = %d, topology has %d", st.EstablishedLinks, net.FullSecureTopology().M())
	}
	if st.Unicasts != 2*st.EstablishedLinks {
		t.Errorf("Unicasts = %d, want %d", st.Unicasts, 2*st.EstablishedLinks)
	}
	wantUnicastBytes := int64(st.Unicasts) * int64(headerBytes+challengeBytes)
	if st.UnicastBytes != wantUnicastBytes {
		t.Errorf("UnicastBytes = %d, want %d", st.UnicastBytes, wantUnicastBytes)
	}
	wantNeighbors := 2 * float64(net.channelTopology().M()) / float64(n)
	if math.Abs(st.ChannelNeighborsMean-wantNeighbors) > 1e-9 {
		t.Errorf("ChannelNeighborsMean = %v, want %v", st.ChannelNeighborsMean, wantNeighbors)
	}
	if st.KeyComparisons != int64(2*net.channelTopology().M())*int64(2*ringSize) {
		t.Errorf("KeyComparisons = %d", st.KeyComparisons)
	}
	// Per-sensor energy proxy: mean must equal total bytes / n.
	totalBytes := float64(st.BroadcastBytes + st.UnicastBytes)
	if math.Abs(st.PerSensorBytes.Mean-totalBytes/float64(n)) > 1e-6 {
		t.Errorf("PerSensorBytes.Mean = %v, want %v", st.PerSensorBytes.Mean, totalBytes/float64(n))
	}
	if st.PerSensorBytes.Max < st.PerSensorBytes.Mean {
		t.Error("max below mean")
	}
}

func TestSimulateDiscoveryEmptyNetwork(t *testing.T) {
	scheme, err := keys.NewQComposite(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Deploy(Config{Sensors: 0, Scheme: scheme, Channel: channel.AlwaysOn{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := net.SimulateDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	if st.Broadcasts != 0 || st.Unicasts != 0 || st.EstablishedLinks != 0 {
		t.Errorf("empty network stats: %+v", st)
	}
}

func TestSimulateDiscoveryScalesWithRing(t *testing.T) {
	// Bigger rings cost proportionally more broadcast bytes.
	mk := func(ring int) DiscoveryStats {
		scheme, err := keys.NewQComposite(1000, ring, 1)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Deploy(Config{Sensors: 50, Scheme: scheme, Channel: channel.OnOff{P: 0.5}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		st, err := net.SimulateDiscovery()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	small, big := mk(10), mk(40)
	if big.BroadcastBytes <= small.BroadcastBytes {
		t.Errorf("broadcast bytes did not grow with ring size: %d vs %d",
			small.BroadcastBytes, big.BroadcastBytes)
	}
}
