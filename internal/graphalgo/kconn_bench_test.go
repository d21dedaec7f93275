package graphalgo_test

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// BenchmarkIsKConnected3 times IsKConnectedW(ws, g, 3) through a reused
// Workspace. kconn is a deployed secure topology of the Theorem-1 sweep
// above its 3-connectivity threshold (n = 1000, P = 10⁴, K = 54, q = 2,
// p = 0.5), so every op runs the full verification.
func BenchmarkIsKConnected3(b *testing.B) {
	b.Run("kconn", func(b *testing.B) {
		scheme, err := keys.NewQComposite(10000, 54, 2)
		if err != nil {
			b.Fatal(err)
		}
		d, err := wsn.NewDeployer(wsn.Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
		if err != nil {
			b.Fatal(err)
		}
		net, err := d.Deploy(1)
		if err != nil {
			b.Fatal(err)
		}
		g := net.FullSecureTopology()
		ws := graphalgo.NewWorkspace()
		if !graphalgo.IsKConnectedW(ws, g, 3) {
			b.Fatal("the seed-1 network is not 3-connected, so an op would stop early")
		}
		b.ReportAllocs()
		for b.Loop() {
			graphalgo.IsKConnectedW(ws, g, 3)
		}
	})
}
