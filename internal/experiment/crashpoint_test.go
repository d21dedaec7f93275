package experiment

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestResumeFromEveryCrashPoint cuts the journal of a checkpointed
// sequential sweep at every byte offset — every place a kill could stop the
// file — and resumes from each prefix. Overlapping points write their
// records in completion order, not Points() order, which the journal must
// not care about. Each resume must return the clean result bit for bit and
// recompute exactly the points whose record the cut lost, or, for a cut
// inside the header (before any point can have been written), fail with an
// error naming the journal. It must never return a wrong result.
func TestResumeFromEveryCrashPoint(t *testing.T) {
	grid := Grid{Ks: []int{3, 5}, Ps: []float64{0.25, 0.75}, Xs: []float64{0, 1}}
	cfg := SweepConfig{Trials: 12, Workers: 2, Seed: 31}
	for _, variant := range resumeVariantsOn(grid) {
		if variant.name == "connstats" {
			continue // deploys networks; the three others cover every codec shape
		}
		t.Run(variant.name, func(t *testing.T) {
			var journal bytes.Buffer
			ckCfg := cfg
			ckCfg.Checkpoint = &journal
			var builds atomic.Int64
			clean, err := variant.run(context.Background(), ckCfg, &builds)
			if err != nil {
				t.Fatal(err)
			}
			data := journal.Bytes()
			// ends[i] is the offset just past line i's closing brace: a cut
			// at or beyond it keeps line i whole, with or without its
			// newline.
			var ends []int
			for off := 0; off < len(data); {
				nl := bytes.IndexByte(data[off:], '\n')
				ends = append(ends, off+nl)
				off += nl + 1
			}
			if points := len(ends) - 1; points != grid.Len() {
				t.Fatalf("journal holds %d point records, want %d", points, grid.Len())
			}
			for cut := 0; cut <= len(data); cut++ {
				kept := 0
				for _, end := range ends[1:] {
					if cut >= end {
						kept++
					}
				}
				resumeCfg := cfg
				resumeCfg.Resume = bytes.NewReader(data[:cut])
				builds.Store(0)
				got, err := variant.run(context.Background(), resumeCfg, &builds)
				if cut > 0 && cut < ends[0] {
					if err == nil || !strings.Contains(err.Error(), "journal") {
						t.Fatalf("cut %d inside the header: err = %v, want a journal error", cut, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("cut %d: resume failed: %v", cut, err)
				}
				if !reflect.DeepEqual(got, clean) {
					t.Fatalf("cut %d: resumed result differs from the clean run\nclean: %+v\ngot:   %+v", cut, clean, got)
				}
				if lost := int64(grid.Len() - kept); builds.Load() != lost {
					t.Fatalf("cut %d: recomputed %d points, want the %d lost ones", cut, builds.Load(), lost)
				}
			}
		})
	}
}
