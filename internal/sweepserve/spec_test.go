package sweepserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the submit path up to
// the job ID: decoding as POST /v1/jobs does, compiling, and deriving the
// sweep fingerprint. No input may panic; every failure is a *SpecError; and
// a spec that compiles keeps its ID when marshalled and decoded again, so
// the ID depends on the spec, not on how its JSON was spelled.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// The README's sweepd example.
		`{"kind": "connectivity", "sensors": 1000, "pool": 10000, "trials": 300, "seed": 1,
		  "grid": {"ks": [20, 30, 40], "qs": [2], "ps": [0.2, 0.5, 1]}}`,
		// The integration suite's job kinds and channel families.
		`{"kind":"connectivity","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"ks":[6,9],"qs":[1],"ps":[0.5,1]}}`,
		`{"kind":"kconn","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"ks":[9],"qs":[1],"ps":[0.7],"xs":[1,2]}}`,
		`{"kind":"cross","sensors":30,"pool":150,"trials":12,"seed":7,"binding":"radius","k":2,"grid":{"ks":[9],"qs":[1],"xs":[0.2,0.35]}}`,
		`{"kind":"cross","sensors":30,"pool":150,"trials":12,"seed":7,"binding":"on","torus":true,"grid":{"ks":[9],"qs":[1],"xs":[0.5]}}`,
		`{"kind":"mindegree","sensors":30,"pool":150,"trials":12,"seed":7,"k":2,"grid":{"ks":[6,9],"qs":[1],"ps":[0.6]}}`,
		`{"kind":"design","sensors":30,"pool":150,"trials":12,"seed":7,"target":0.9,"kmax":2,"grid":{"qs":[1],"ps":[0.9]}}`,
		`{"kind":"kstar","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"qs":[1,2],"ps":[1,0.5]}}`,
		`{"kind":"campaign","sensors":30,"pool":150,"trials":12,"seed":7,"timeline":"capture:4,fail:3","grid":{"ks":[9],"qs":[1],"ps":[0.7],"xs":[0,4,7]}}`,
		`{"kind":"connectivity","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"ks":[9],"qs":[1]},"channel":{"type":"onoff","p":0.7}}`,
		`{"kind":"connectivity","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"ks":[9],"qs":[1]},"channel":{"type":"disk","radius":0.4,"torus":true}}`,
		`{"kind":"connectivity","sensors":30,"pool":150,"trials":12,"seed":7,"grid":{"qs":[1]},
		  "classes":[{"mu":0.5,"ring":6},{"mu":0.5,"ring":12}],"channel":{"type":"heteronoff","on":[[0.9,0.6],[0.6,0.3]]}}`,
		// Failures: unknown field, bad kind, bad channel, wrong types.
		`{"kind":"connectivity","trails":100}`,
		`{"kind":"warp","sensors":30,"pool":150,"trials":12}`,
		`{"kind":"connectivity","sensors":30,"pool":150,"trials":12,"grid":{"ks":[6]},"channel":{"type":"quantum"}}`,
		`{"kind":7}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, _, specErr := decodeSpec(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), MaxSpecBytes))
		if specErr != nil {
			if specErr.Field != "body" {
				t.Fatalf("decode failure names field %q, want \"body\"", specErr.Field)
			}
			return
		}
		plan, err := spec.compile()
		if err != nil {
			if _, ok := err.(*SpecError); !ok {
				t.Fatalf("compile failed with %T (%v), want *SpecError", err, err)
			}
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("a decoded spec does not marshal: %v", err)
		}
		respec, _, specErr := decodeSpec(bytes.NewReader(again))
		if specErr != nil {
			t.Fatalf("re-marshalled spec %s does not decode: %v", again, specErr)
		}
		replan, err := respec.compile()
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not compile: %v", again, err)
		}
		if replan.id != plan.id {
			t.Fatalf("re-marshalled spec %s has ID %s, want %s", again, replan.id, plan.id)
		}
	})
}
