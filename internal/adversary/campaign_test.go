package adversary

import (
	"reflect"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestParseTimeline(t *testing.T) {
	tl, err := ParseTimeline("capture:10, fail:5,capture-targeted:2,jam:3,revoke:10,fail-targeted:1")
	if err != nil {
		t.Fatal(err)
	}
	want := Timeline{
		{StepCapture, 10}, {StepFailRandom, 5}, {StepCaptureTargeted, 2},
		{StepJam, 3}, {StepRevoke, 10}, {StepFailTargeted, 1},
	}
	if !reflect.DeepEqual(tl, want) {
		t.Fatalf("parsed %v, want %v", tl, want)
	}
	if got := tl.String(); got != "capture:10,fail:5,capture-targeted:2,jam:3,revoke:10,fail-targeted:1" {
		t.Errorf("String() = %q", got)
	}
	if tl.TotalBudget() != 31 {
		t.Errorf("TotalBudget = %d", tl.TotalBudget())
	}
	for _, bad := range []string{"", "capture", "capture:0", "capture:-3", "capture:x", "steal:5", "capture:5:6",
		"capture:9223372036854775807,fail:1"} {
		if _, err := ParseTimeline(bad); err == nil {
			t.Errorf("ParseTimeline(%q): want error", bad)
		}
	}
	// An overflowing total budget names the step that overflowed it.
	_, err = ParseTimeline("capture:9223372036854775807,fail:1")
	if err == nil || !strings.Contains(err.Error(), `"fail:1"`) {
		t.Errorf("overflowing budget: err = %v, want it to name step \"fail:1\"", err)
	}
}

// FuzzParseTimeline checks the timeline parser on arbitrary specs: it
// never panics, every accepted timeline round-trips through String, and
// its total budget is non-negative.
func FuzzParseTimeline(f *testing.F) {
	for _, seed := range []string{
		"capture:10, fail:5,capture-targeted:2,jam:3,revoke:10,fail-targeted:1",
		"capture:16;capture:8,fail:8", "capture:16", "capture:8,fail:8", "capture:10,fail:10",
		"capture:3", "capture:5", "capture:4,fail:3", "capture:0", "steal:5",
		"meteor:10", "capture:9223372036854775807,fail:1", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tl, err := ParseTimeline(spec)
		if err != nil {
			return
		}
		again, err := ParseTimeline(tl.String())
		if err != nil {
			t.Fatalf("ParseTimeline(%q) = %v, but its String %q fails: %v", spec, tl, tl.String(), err)
		}
		if !reflect.DeepEqual(again, tl) {
			t.Fatalf("round trip of %q: %v != %v", spec, again, tl)
		}
		if b := tl.TotalBudget(); b < 0 {
			t.Fatalf("ParseTimeline(%q): TotalBudget = %d", spec, b)
		}
	})
}

func TestTimelinePrefix(t *testing.T) {
	tl := Timeline{{StepCapture, 10}, {StepFailRandom, 5}, {StepCapture, 10}}
	cases := []struct {
		budget int
		want   Timeline
	}{
		{0, nil},
		{-1, nil},
		{3, Timeline{{StepCapture, 3}}},
		{10, Timeline{{StepCapture, 10}}},
		{12, Timeline{{StepCapture, 10}, {StepFailRandom, 2}}},
		{15, Timeline{{StepCapture, 10}, {StepFailRandom, 5}}},
		{18, Timeline{{StepCapture, 10}, {StepFailRandom, 5}, {StepCapture, 3}}},
		{25, tl},
		{99, tl},
	}
	for _, c := range cases {
		if got := tl.Prefix(c.budget); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Prefix(%d) = %v, want %v", c.budget, got, c.want)
		}
	}
}

func TestRunCampaignEmptyTimeline(t *testing.T) {
	net := deployFor(t, 300, 25, 2, 50)
	res, err := RunCampaign(net, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("empty timeline ran %d steps", len(res.Steps))
	}
	b := res.Final()
	if b.TotalLinks != net.FullSecureTopology().M() {
		t.Errorf("baseline TotalLinks = %d, want %d", b.TotalLinks, net.FullSecureTopology().M())
	}
	if b.CompromisedLinks != 0 || b.KeysLearned != 0 || b.CapturedTotal != 0 {
		t.Errorf("baseline shows adversary progress: %+v", b)
	}
	if b.Alive != net.Sensors() {
		t.Errorf("baseline Alive = %d", b.Alive)
	}
	if b.SecureFraction <= 0 || b.SecureFraction > 1 {
		t.Errorf("baseline SecureFraction = %v", b.SecureFraction)
	}
	if b.SecureGiant > b.Alive {
		t.Errorf("SecureGiant %d > Alive %d", b.SecureGiant, b.Alive)
	}
}

// TestCampaignSingleStepMatchesCaptureRandom pins the equivalence the sweep
// family relies on: a one-step capture:x campaign is byte-identical to
// CaptureRandom at the same seed — same captured set, same link accounting,
// and the SAME number of randomness draws (verified by comparing the next
// value both generators produce).
func TestCampaignSingleStepMatchesCaptureRandom(t *testing.T) {
	const x = 25
	netA := deployFor(t, 300, 25, 2, 51)
	rA := rng.New(7)
	want, err := CaptureRandom(netA, rA, x)
	if err != nil {
		t.Fatal(err)
	}

	netB := deployFor(t, 300, 25, 2, 51)
	rB := rng.New(7)
	res, err := RunCampaign(netB, rB, Timeline{{StepCapture, x}})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Final()
	if !reflect.DeepEqual(got.Captured, want.Captured) {
		t.Fatalf("captured sets diverge:\ncampaign %v\ncapture  %v", got.Captured, want.Captured)
	}
	if got.KeysLearned != want.KeysLearned || got.NewKeys != want.KeysLearned {
		t.Errorf("KeysLearned = %d (new %d), want %d", got.KeysLearned, got.NewKeys, want.KeysLearned)
	}
	if got.CompromisedLinks != want.CompromisedLinks || got.TotalLinks != want.TotalLinks {
		t.Errorf("links = %d/%d, want %d/%d",
			got.CompromisedLinks, got.TotalLinks, want.CompromisedLinks, want.TotalLinks)
	}
	if got.Acted != x || got.CapturedTotal != x {
		t.Errorf("Acted = %d, CapturedTotal = %d, want %d", got.Acted, got.CapturedTotal, x)
	}
	// Draw-for-draw: both generators must be in the same state afterwards.
	if a, b := rA.Intn(1<<30), rB.Intn(1<<30); a != b {
		t.Errorf("randomness consumption diverged: next draws %d vs %d", a, b)
	}
}

// TestCampaignCompromisePropagates verifies the defining property of the
// engine: keys learned in step i compromise links evaluated after step j > i.
// A two-step capture campaign must end in exactly the state of a one-shot
// Capture of the union set.
func TestCampaignCompromisePropagates(t *testing.T) {
	netA := deployFor(t, 300, 25, 2, 52)
	res, err := RunCampaign(netA, rng.New(9), Timeline{{StepCapture, 12}, {StepCapture, 13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("ran %d steps", len(res.Steps))
	}
	s1, s2 := res.Steps[0], res.Steps[1]
	if s1.KeysLearned >= s2.KeysLearned {
		t.Errorf("knowledge did not grow: %d then %d", s1.KeysLearned, s2.KeysLearned)
	}
	if s2.NewKeys != s2.KeysLearned-s1.KeysLearned {
		t.Errorf("NewKeys = %d, want %d", s2.NewKeys, s2.KeysLearned-s1.KeysLearned)
	}
	union := append(append([]int32(nil), s1.Captured...), s2.Captured...)
	netB := deployFor(t, 300, 25, 2, 52)
	want, err := Capture(netB, union)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final.CompromisedLinks != want.CompromisedLinks || final.TotalLinks != want.TotalLinks {
		t.Errorf("two-step campaign = %d/%d links, one-shot union = %d/%d",
			final.CompromisedLinks, final.TotalLinks, want.CompromisedLinks, want.TotalLinks)
	}
	if final.KeysLearned != want.KeysLearned {
		t.Errorf("KeysLearned = %d, want %d", final.KeysLearned, want.KeysLearned)
	}
}

// TestCampaignCaptureAfterFailure: sensors failed in an earlier step must
// never be captured by a later one, for both capture kinds. (The converse is
// allowed — a captured sensor keeps operating and may fail later.)
func TestCampaignCaptureAfterFailure(t *testing.T) {
	for _, kind := range []StepKind{StepCapture, StepCaptureTargeted} {
		t.Run(kind.String(), func(t *testing.T) {
			net := deployFor(t, 300, 25, 2, 53)
			res, err := RunCampaign(net, rng.New(3), Timeline{
				{StepFailRandom, 30}, {kind, 40}, {StepFailRandom, 20}, {kind, 25},
			})
			if err != nil {
				t.Fatal(err)
			}
			deadBefore := map[int32]bool{}
			captured := map[int32]bool{}
			for i, sr := range res.Steps {
				for _, id := range sr.Captured {
					if captured[id] {
						t.Fatalf("sensor %d captured twice", id)
					}
					if deadBefore[id] {
						t.Errorf("step %d captured sensor %d, failed in an earlier step", i, id)
					}
					captured[id] = true
				}
				for _, id := range sr.Failed {
					deadBefore[id] = true
				}
			}
			if len(deadBefore) != 50 {
				t.Errorf("Failed reporting covered %d sensors, want 50", len(deadBefore))
			}
			final := res.Final()
			if final.Alive != net.AliveCount() || final.Alive != 150-50 {
				t.Errorf("Alive = %d (net %d), want %d", final.Alive, net.AliveCount(), 150-50)
			}
			if final.CapturedTotal != 65 || len(captured) != 65 {
				t.Errorf("CapturedTotal = %d, distinct = %d", final.CapturedTotal, len(captured))
			}
		})
	}
}

func TestCampaignJamShrinksLinkBudget(t *testing.T) {
	const j = 30
	net := deployFor(t, 300, 25, 2, 54)
	res, err := RunCampaign(net, rng.New(5), Timeline{{StepJam, j}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Final()
	if s.Acted != j {
		t.Fatalf("Acted = %d, want %d", s.Acted, j)
	}
	if s.TotalLinks != res.Baseline.TotalLinks-j {
		t.Errorf("TotalLinks = %d, want %d - %d", s.TotalLinks, res.Baseline.TotalLinks, j)
	}
	if net.FailedLinkCount() != j {
		t.Errorf("network FailedLinkCount = %d", net.FailedLinkCount())
	}
	if s.KeysLearned != 0 || s.CapturedTotal != 0 {
		t.Errorf("jamming leaked keys: %+v", s)
	}
}

// TestCampaignRevokeClearsCompromise: after revoking every captured sensor,
// the keys the adversary learned are all revoked, so every surviving link's
// shared set is unknown — CompromisedLinks must drop to zero, and the
// revoked sensors are retired.
func TestCampaignRevokeClearsCompromise(t *testing.T) {
	const x = 40
	net := deployFor(t, 300, 25, 2, 55)
	res, err := RunCampaign(net, rng.New(8), Timeline{{StepCapture, x}, {StepRevoke, x}})
	if err != nil {
		t.Fatal(err)
	}
	afterCapture, afterRevoke := res.Steps[0], res.Steps[1]
	if afterCapture.CompromisedLinks == 0 {
		t.Fatal("capture step compromised nothing; test parameters too weak")
	}
	if afterRevoke.Acted != x {
		t.Errorf("revoke Acted = %d, want %d", afterRevoke.Acted, x)
	}
	if afterRevoke.CompromisedLinks != 0 {
		t.Errorf("CompromisedLinks = %d after full revocation", afterRevoke.CompromisedLinks)
	}
	if afterRevoke.Alive != 150-x {
		t.Errorf("Alive = %d, want %d", afterRevoke.Alive, 150-x)
	}
	if len(afterRevoke.Failed) != x {
		t.Errorf("revoke reported %d retired sensors, want %d", len(afterRevoke.Failed), x)
	}
	for _, id := range afterCapture.Captured {
		if net.Alive(id) {
			t.Errorf("revoked sensor %d still alive", id)
		}
	}
	// Revoking with nothing left to revoke is a no-op, not an error.
	res2, err := RunCampaign(deployFor(t, 300, 25, 2, 55), rng.New(8),
		Timeline{{StepRevoke, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if s := res2.Final(); s.Acted != 0 || s.TornLinks != 0 {
		t.Errorf("revoke with no captives acted: %+v", s)
	}
}

func TestCampaignClampsBudgets(t *testing.T) {
	net := deployFor(t, 200, 20, 1, 56)
	res, err := RunCampaign(net, rng.New(2), Timeline{{StepCapture, 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Final()
	if s.Acted != 150 || s.CapturedTotal != 150 {
		t.Errorf("clamped capture acted %d, captured %d, want 150", s.Acted, s.CapturedTotal)
	}
	if s.TotalLinks != 0 || s.SecureGiant != 0 || s.SecureFraction != 0 {
		t.Errorf("everyone captured but accounting shows survivors: %+v", s)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	tl, err := ParseTimeline("capture:15,fail:10,jam:5,capture-targeted:5,revoke:20,fail-targeted:3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *CampaignResult {
		res, err := RunCampaign(deployFor(t, 300, 25, 2, 57), rng.New(4), tl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaign not deterministic:\n%+v\n%+v", a, b)
	}
	// Step echo: results must report the timeline entries in order.
	for i, sr := range a.Steps {
		if sr.Step != tl[i] {
			t.Errorf("step %d echoes %+v, want %+v", i, sr.Step, tl[i])
		}
	}
}

func TestCampaignStepOrderingMatters(t *testing.T) {
	// fail-then-capture spends the capture budget on survivors only, so the
	// adversary's knowledge (and the captured sets) differ from
	// capture-then-fail at the same seed.
	resA, err := RunCampaign(deployFor(t, 300, 25, 2, 58), rng.New(6),
		Timeline{{StepFailRandom, 50}, {StepCapture, 30}})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunCampaign(deployFor(t, 300, 25, 2, 58), rng.New(6),
		Timeline{{StepCapture, 30}, {StepFailRandom, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(resA.Final().Captured, resB.Steps[0].Captured) &&
		resA.Final().KeysLearned == resB.Final().KeysLearned {
		t.Error("step order had no effect on identical seeds; ordering is not threaded through")
	}
	// Both orders end with the same liveness, though.
	if resA.Final().Alive != resB.Final().Alive {
		t.Errorf("alive counts diverge: %d vs %d", resA.Final().Alive, resB.Final().Alive)
	}
}

func TestCampaignValidation(t *testing.T) {
	net := deployFor(t, 200, 20, 1, 59)
	if _, err := RunCampaign(net, rng.New(1), Timeline{{StepCapture, 0}}); err == nil {
		t.Error("zero-count step: want error")
	}
	if _, err := RunCampaign(net, rng.New(1), Timeline{{StepKind(99), 5}}); err == nil {
		t.Error("invalid kind: want error")
	}
}

func TestCampaignSecureFractionMonotoneUnderCapture(t *testing.T) {
	// Under pure capture the securely-connected fraction can only fall: each
	// step removes sensors from the eligible set and compromises more links.
	net := deployFor(t, 300, 25, 2, 60)
	res, err := RunCampaign(net, rng.New(11), Timeline{
		{StepCapture, 20}, {StepCapture, 20}, {StepCapture, 20}, {StepCapture, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := res.Baseline
	for i, sr := range res.Steps {
		if sr.SecureGiant > prev.SecureGiant {
			t.Errorf("step %d: SecureGiant grew %d → %d under capture", i, prev.SecureGiant, sr.SecureGiant)
		}
		if sr.CompromisedLinks < 0 || sr.CompromisedLinks > sr.TotalLinks {
			t.Errorf("step %d: compromised %d of %d", i, sr.CompromisedLinks, sr.TotalLinks)
		}
		prev = sr
	}
}
