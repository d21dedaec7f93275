// Package sweepserve is the sweep-as-a-service layer: a long-running job
// server wrapping the experiment engine. Clients POST JobSpecs (figure1-style
// connectivity sweeps, cross sweeps, k-connectivity, min-degree, design-rule
// validations, attack campaigns); a bounded worker pool executes them on
// wsn.DeployerPools with PointWorkers sharding; clients poll job status,
// stream per-point progress over SSE, and fetch results as JSON or CSV.
//
// Determinism is the contract that makes the service cacheable: per-point
// seeds derive from point parameters (experiment.SweepConfig.PointSeed), so
// a grid point's result is a pure function of (code version, sweep kind,
// job label, trial budget, base seed, point parameters) — the key of the
// shared result Store. Identical in-flight jobs coalesce onto one execution
// via the sweep's journal fingerprint, overlapping grids resolve shared
// points from the store instead of recomputing them, and because the store
// persists through the PR-8 checkpoint-journal format, a restarted server
// resumes from the journal file bit-identical to a server that never died.
package sweepserve

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/adversary"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// Job kinds the server executes. All but KindCampaign estimate a proportion
// per grid point; KindCampaign measures the 4-component campaign vector.
const (
	// KindConnectivity estimates P[secure topology connected] on the
	// streaming union-find path: scheme axes (Ks, Qs) and on/off channel
	// driven by the Ps axis unless the spec fixes a channel. Equivalent to
	// experiment.SweepConnectivity.
	KindConnectivity = "connectivity"
	// KindKConn estimates P[k-connected] with the Xs axis carrying the
	// levels (experiment.SweepKConnectivity).
	KindKConn = "kconn"
	// KindCross estimates P[k-connected] with the Xs axis bound to a model
	// quantity — "k", "radius" or "on" (experiment.CrossSweep).
	KindCross = "cross"
	// KindMinDegree estimates P[secure min degree ≥ k] on the streaming
	// path (experiment.SweepMinDegree).
	KindMinDegree = "mindegree"
	// KindDesign is the design-rule endpoint: for each level k = 1..KMax it
	// computes the smallest ring size achieving the target k-connectivity
	// probability under Theorem 1 (theory.DesignRingSize) and validates it
	// empirically. cmd/designer runs this job, in process (RunLocal) or on a
	// server.
	KindDesign = "design"
	// KindKStar validates the eq. (9) connectivity threshold K* of each
	// (q, p) grid point by deploying at it. cmd/kstar runs this job, in
	// process (RunLocal) or on a server.
	KindKStar = "kstar"
	// KindCampaign sweeps an adversary.Timeline over an attack-budget Xs
	// axis (experiment.SweepCampaign).
	KindCampaign = "campaign"
)

// GridSpec is the JSON form of experiment.Grid.
type GridSpec struct {
	Ks []int     `json:"ks,omitempty"`
	Qs []int     `json:"qs,omitempty"`
	Ps []float64 `json:"ps,omitempty"`
	Xs []float64 `json:"xs,omitempty"`
}

// Grid converts to the engine's grid type.
func (g GridSpec) Grid() experiment.Grid {
	return experiment.Grid{Ks: g.Ks, Qs: g.Qs, Ps: g.Ps, Xs: g.Xs}
}

// ClassSpec is one sensor class of a heterogeneous scheme.
type ClassSpec struct {
	Mu   float64 `json:"mu"`
	Ring int     `json:"ring"`
}

// ChannelSpec fixes the job's channel model. Omitting it (or giving type
// "onoff" without "p") drives an on/off channel from the grid's Ps axis.
type ChannelSpec struct {
	// Type is "onoff", "alwayson", "disk" or "heteronoff".
	Type string `json:"type"`
	// P fixes the on/off probability; nil reads it from the Ps axis.
	P *float64 `json:"p,omitempty"`
	// Radius and Torus configure a disk channel.
	Radius float64 `json:"radius,omitempty"`
	Torus  bool    `json:"torus,omitempty"`
	// On is the per-class-pair on/off matrix of a heteronoff channel; its
	// dimension must equal the number of scheme classes.
	On [][]float64 `json:"on,omitempty"`
}

// JobSpec is one submitted job: everything needed to reproduce the sweep
// bit-identically, and nothing about scheduling (worker counts are the
// server's concern and never part of result identity).
type JobSpec struct {
	Kind    string   `json:"kind"`
	Sensors int      `json:"sensors"`
	Pool    int      `json:"pool"`
	Trials  int      `json:"trials"`
	Seed    uint64   `json:"seed"`
	Grid    GridSpec `json:"grid"`

	// Classes switches the scheme from q-composite (ring size on the Ks
	// axis) to heterogeneous with these fixed per-class ring sizes.
	Classes []ClassSpec `json:"classes,omitempty"`
	// Channel fixes the channel model; see ChannelSpec.
	Channel *ChannelSpec `json:"channel,omitempty"`

	// Binding names what the Xs axis drives for kind "cross": "k",
	// "radius" or "on".
	Binding string `json:"binding,omitempty"`
	// Torus selects wraparound disk distances under binding "radius".
	Torus bool `json:"torus,omitempty"`
	// K is the fixed connectivity level (kinds cross/mindegree); 0 means
	// k = 1 for cross and minimum degree ≥ 0 trivially for mindegree.
	K int `json:"k,omitempty"`

	// Target and KMax configure kind "design".
	Target float64 `json:"target,omitempty"`
	KMax   int     `json:"kmax,omitempty"`

	// Timeline is the attack campaign of kind "campaign"
	// (adversary.ParseTimeline syntax).
	Timeline string `json:"timeline,omitempty"`
}

// SpecError is a job-spec validation failure naming the offending field; the
// server returns it as a structured 400.
type SpecError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("sweepserve: spec field %q: %s", e.Field, e.Msg)
}

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// jobPlan is a validated, executable job: the canonical label and journal
// kind that key its points in the store, the grid, and exactly one runner.
type jobPlan struct {
	// kind is the journal/codec kind (experiment.KindProportion or
	// KindMeanVec(CampaignDims)); label is the canonical sweep label —
	// everything the build closures bake in that the fingerprint's
	// grid/trials/seed do not.
	kind  string
	label string
	grid  experiment.Grid

	// trialBuild runs proportion-kind jobs (every kind but campaign); the
	// manager may wrap it (Options.WrapTrialBuild) for fault injection.
	trialBuild func(pt experiment.GridPoint) (montecarlo.Trial, error)
	// campaign runs campaign-kind jobs.
	campaign *experiment.CampaignSpec
}

// schemeLabel renders the scheme half of the canonical label.
func (s *JobSpec) schemeLabel() string {
	if len(s.Classes) == 0 {
		return "qcomposite"
	}
	lbl := "hetero["
	for i, c := range s.Classes {
		if i > 0 {
			lbl += " "
		}
		lbl += fmt.Sprintf("mu=%g ring=%d", c.Mu, c.Ring)
	}
	return lbl + "]"
}

// channelLabel renders the channel half of the canonical label.
func (s *JobSpec) channelLabel() string {
	c := s.Channel
	if c == nil || (c.Type == "onoff" && c.P == nil) {
		return "onoff(axis)"
	}
	switch c.Type {
	case "onoff":
		return fmt.Sprintf("onoff(p=%g)", *c.P)
	case "alwayson":
		return "alwayson"
	case "disk":
		return fmt.Sprintf("disk(r=%g torus=%t)", c.Radius, c.Torus)
	case "heteronoff":
		return fmt.Sprintf("heteronoff%v", c.On)
	}
	return c.Type
}

// schemeFor builds the grid point's key predistribution scheme.
func (s *JobSpec) schemeFor(pt experiment.GridPoint) (keys.Scheme, error) {
	if len(s.Classes) == 0 {
		return keys.NewQComposite(s.Pool, pt.K, pt.Q)
	}
	classes := make([]keys.Class, len(s.Classes))
	for i, c := range s.Classes {
		classes[i] = keys.Class{Mu: c.Mu, RingSize: c.Ring}
	}
	return keys.NewHeterogeneous(s.Pool, pt.Q, classes)
}

// channelFor resolves the grid point's channel model, or nil when a cross
// binding supplies it from the Xs axis.
func (s *JobSpec) channelFor(pt experiment.GridPoint) (channel.Model, error) {
	c := s.Channel
	if s.Kind == KindCross && (s.Binding == "radius" || s.Binding == "on") {
		return nil, nil // bound to the Xs axis; validated to have no ChannelSpec
	}
	if c == nil || (c.Type == "onoff" && c.P == nil) {
		return channel.OnOff{P: pt.P}, nil
	}
	switch c.Type {
	case "onoff":
		return channel.OnOff{P: *c.P}, nil
	case "alwayson":
		return channel.AlwaysOn{}, nil
	case "disk":
		return channel.Disk{Radius: c.Radius, Torus: c.Torus}, nil
	case "heteronoff":
		return channel.HeterOnOff{P: c.On}, nil
	}
	return nil, fmt.Errorf("unknown channel type %q", c.Type)
}

// configFor assembles the deployment of one grid point.
func (s *JobSpec) configFor(pt experiment.GridPoint) (wsn.Config, error) {
	scheme, err := s.schemeFor(pt)
	if err != nil {
		return wsn.Config{}, err
	}
	ch, err := s.channelFor(pt)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: s.Sensors, Scheme: scheme, Channel: ch}, nil
}

// validateChannel checks the ChannelSpec shape eagerly with named fields,
// mirroring the errors channel.Model.Validate and wsn's class-count
// agreement check would raise at deployment time.
func (s *JobSpec) validateChannel() *SpecError {
	c := s.Channel
	if c == nil {
		return nil
	}
	switch c.Type {
	case "onoff":
		if c.P != nil {
			if err := (channel.OnOff{P: *c.P}).Validate(); err != nil {
				return specErrf("channel.p", "%v", err)
			}
		}
	case "alwayson":
	case "disk":
		if err := (channel.Disk{Radius: c.Radius, Torus: c.Torus}).Validate(); err != nil {
			return specErrf("channel.radius", "%v", err)
		}
	case "heteronoff":
		if len(s.Classes) == 0 {
			return specErrf("classes", "channel type \"heteronoff\" needs a heterogeneous scheme: declare the sensor classes")
		}
		if len(c.On) != len(s.Classes) {
			return specErrf("channel.on", "on/off matrix has %d classes but the scheme declares %d — the channel and scheme share one class assignment",
				len(c.On), len(s.Classes))
		}
		if err := (channel.HeterOnOff{P: c.On}).Validate(); err != nil {
			return specErrf("channel.on", "%v", err)
		}
	case "":
		return specErrf("channel.type", "channel spec needs a type (onoff, alwayson, disk, heteronoff)")
	default:
		return specErrf("channel.type", "unknown channel type %q (want onoff, alwayson, disk or heteronoff)", c.Type)
	}
	return nil
}

// validateCommon checks the fields every kind shares.
func (s *JobSpec) validateCommon() *SpecError {
	if s.Sensors <= 0 {
		return specErrf("sensors", "sensor count %d must be positive", s.Sensors)
	}
	if s.Trials <= 0 {
		return specErrf("trials", "trial budget %d must be positive — a sweep with zero trials estimates nothing", s.Trials)
	}
	if s.Pool <= 0 {
		return specErrf("pool", "key pool size %d must be positive", s.Pool)
	}
	if len(s.Classes) > 0 && len(s.Grid.Ks) > 0 {
		return specErrf("grid.ks", "ring sizes come from the per-class declarations under a heterogeneous scheme; the Ks axis must be empty")
	}
	if err := s.validateChannel(); err != nil {
		return err
	}
	return nil
}

// validatePoints eagerly builds every grid point's deployment through the
// same constructors the sweep will use, so scheme/channel/model
// misconfigurations surface at submit time as 400s, not as failed jobs.
func (s *JobSpec) validatePoints(grid experiment.Grid) *SpecError {
	for _, pt := range grid.Points() {
		cfg, err := s.configFor(pt)
		if err != nil {
			return specErrf("spec", "grid point %v: %v", pt, err)
		}
		if cfg.Channel == nil {
			continue // cross binding supplies it per point; CrossSpec validated the axis
		}
		if _, err := wsn.NewDeployerPool(cfg); err != nil {
			return specErrf("spec", "grid point %v: %v", pt, err)
		}
	}
	return nil
}

// compile validates the spec and lowers it to an executable plan. All
// validation errors are *SpecError values naming the offending field.
func (s *JobSpec) compile() (*jobPlan, error) {
	switch s.Kind {
	case KindConnectivity, KindKConn, KindCross, KindMinDegree, KindDesign, KindKStar, KindCampaign:
	case "":
		return nil, specErrf("kind", "job needs a kind (connectivity, kconn, cross, mindegree, design, kstar, campaign)")
	default:
		return nil, specErrf("kind", "unknown job kind %q (want connectivity, kconn, cross, mindegree, design, kstar or campaign)", s.Kind)
	}
	if err := s.validateCommon(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindConnectivity:
		return s.compileConnectivity()
	case KindKConn, KindCross:
		return s.compileCross()
	case KindMinDegree:
		return s.compileMinDegree()
	case KindDesign:
		return s.compileDesign()
	case KindKStar:
		return s.compileKStar()
	case KindCampaign:
		return s.compileCampaign()
	}
	panic("unreachable")
}

// compileConnectivity lowers a connectivity job: the verdict trial of
// experiment.SweepConnectivity, point for point.
func (s *JobSpec) compileConnectivity() (*jobPlan, error) {
	grid := s.Grid.Grid()
	if err := s.validatePoints(grid); err != nil {
		return nil, err
	}
	return &jobPlan{
		kind: experiment.KindProportion,
		label: fmt.Sprintf("sweepserve/connectivity n=%d pool=%d scheme=%s channel=%s",
			s.Sensors, s.Pool, s.schemeLabel(), s.channelLabel()),
		grid:       grid,
		trialBuild: experiment.ConnectivityTrials(s.configFor),
	}, nil
}

// crossSpec resolves the job's cross-sweep bindings.
func (s *JobSpec) crossSpec() (experiment.CrossSpec, *SpecError) {
	spec := experiment.CrossSpec{
		Torus: s.Torus,
		K:     s.K,
		Build: s.configFor,
	}
	switch {
	case s.Kind == KindKConn:
		if s.Binding != "" && s.Binding != "k" {
			return spec, specErrf("binding", "kind \"kconn\" always binds the Xs axis to k; drop binding %q or use kind \"cross\"", s.Binding)
		}
		spec.Bindings = []experiment.XBinding{experiment.BindK}
	case s.Binding == "k":
		spec.Bindings = []experiment.XBinding{experiment.BindK}
	case s.Binding == "radius":
		spec.Bindings = []experiment.XBinding{experiment.BindDiskRadius}
	case s.Binding == "on":
		spec.Bindings = []experiment.XBinding{experiment.BindChannelOn}
	case s.Binding == "":
		return spec, specErrf("binding", "kind \"cross\" needs a binding for the Xs axis: \"k\", \"radius\" or \"on\"")
	default:
		return spec, specErrf("binding", "unknown Xs binding %q (want \"k\", \"radius\" or \"on\")", s.Binding)
	}
	if (s.Binding == "radius" || s.Binding == "on") && s.Channel != nil {
		// Mirrors CrossSpec.pointDeployment's channel-bound-twice error, but
		// eagerly at submit time.
		return spec, specErrf("channel", "channel bound twice: the Xs axis carries the %s while the spec also fixes a channel model",
			map[string]string{"radius": "disk radius", "on": "on probability"}[s.Binding])
	}
	return spec, nil
}

// compileCross lowers kconn and cross jobs: the CrossSweep trial
// (CrossSpec.PointTrial), point for point. The server funnels every
// proportion job through a trialBuild so the manager's WrapTrialBuild hook
// (fault injection in the integration suite) sees them all.
func (s *JobSpec) compileCross() (*jobPlan, error) {
	grid := s.Grid.Grid()
	spec, serr := s.crossSpec()
	if serr != nil {
		return nil, serr
	}
	if err := spec.Validate(grid); err != nil {
		// CrossSpec's eager validation: twice-bound axes, illegal Xs values.
		field := "grid.xs"
		if s.K != 0 {
			field = "k"
		}
		return nil, specErrf(field, "%v", err)
	}
	if err := s.validatePoints(grid); err != nil {
		return nil, err
	}
	return &jobPlan{
		kind: experiment.KindProportion,
		label: fmt.Sprintf("sweepserve/%s n=%d pool=%d scheme=%s channel=%s binding=%s torus=%t k=%d",
			s.Kind, s.Sensors, s.Pool, s.schemeLabel(), s.channelLabel(), s.Binding, s.Torus, s.K),
		grid:       grid,
		trialBuild: spec.PointTrial,
	}, nil
}

// compileMinDegree lowers a min-degree job: the verdict trial of
// experiment.SweepMinDegree, point for point.
func (s *JobSpec) compileMinDegree() (*jobPlan, error) {
	if s.K < 0 {
		return nil, specErrf("k", "min-degree level %d must be ≥ 0", s.K)
	}
	grid := s.Grid.Grid()
	if err := s.validatePoints(grid); err != nil {
		return nil, err
	}
	k := s.K
	return &jobPlan{
		kind: experiment.KindProportion,
		label: fmt.Sprintf("sweepserve/mindegree n=%d pool=%d scheme=%s channel=%s k=%d",
			s.Sensors, s.Pool, s.schemeLabel(), s.channelLabel(), k),
		grid:       grid,
		trialBuild: experiment.MinDegreeTrials(k, s.configFor),
	}, nil
}

// compileDesign lowers a design job: cmd/designer's validation sweep — for
// each level k on the Xs axis (derived from KMax), deploy at the smallest
// ring size theory.DesignRingSize says achieves the target, and measure
// P[k-connected] (the SweepKConnectivity trial).
func (s *JobSpec) compileDesign() (*jobPlan, error) {
	if s.Target <= 0 || s.Target >= 1 {
		return nil, specErrf("target", "target probability %v must be in (0,1)", s.Target)
	}
	if s.KMax < 1 {
		return nil, specErrf("kmax", "kmax %d must be ≥ 1", s.KMax)
	}
	if len(s.Grid.Xs) > 0 {
		return nil, specErrf("grid.xs", "the Xs axis of a design job carries the levels 1..kmax and is derived from kmax; leave it empty")
	}
	if len(s.Grid.Ks) > 0 {
		return nil, specErrf("grid.ks", "ring sizes of a design job come from the design rule; leave the Ks axis empty")
	}
	if len(s.Classes) > 0 {
		return nil, specErrf("classes", "the design rule covers the q-composite scheme; heterogeneous classes are not supported")
	}
	if s.Channel != nil {
		return nil, specErrf("channel", "the design rule models an on/off channel driven by the Ps axis; leave the channel spec empty")
	}
	if len(s.Grid.Qs) == 0 || len(s.Grid.Ps) == 0 {
		return nil, specErrf("grid.qs", "design jobs need the overlap (Qs) and channel (Ps) axes")
	}
	grid := s.Grid.Grid()
	grid.Xs = experiment.KLevels(s.KMax)
	spec := experiment.CrossSpec{
		Bindings: []experiment.XBinding{experiment.BindK},
		Build: func(pt experiment.GridPoint) (wsn.Config, error) {
			k, err := experiment.KOf(pt)
			if err != nil {
				return wsn.Config{}, err
			}
			ring, err := theory.DesignRingSize(s.Sensors, s.Pool, pt.Q, pt.P, k, s.Target)
			if err != nil {
				return wsn.Config{}, fmt.Errorf("design k=%d: %w", k, err)
			}
			scheme, err := keys.NewQComposite(s.Pool, ring, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: s.Sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		},
	}
	// Eager design-rule validation: every point must be designable.
	for _, pt := range grid.Points() {
		if _, err := spec.Build(pt); err != nil {
			return nil, specErrf("spec", "grid point %v: %v", pt, err)
		}
	}
	return &jobPlan{
		kind: experiment.KindProportion,
		label: fmt.Sprintf("sweepserve/design n=%d pool=%d target=%g kmax=%d",
			s.Sensors, s.Pool, s.Target, s.KMax),
		grid:       grid,
		trialBuild: spec.PointTrial,
	}, nil
}

// compileKStar lowers a kstar job: cmd/kstar's validation sweep — deploy
// each (q, p) point at its exact eq. (9) threshold K* and measure
// P[connected] with the connectivity verdict (the SweepConnectivity
// trial).
func (s *JobSpec) compileKStar() (*jobPlan, error) {
	if len(s.Grid.Qs) == 0 || len(s.Grid.Ps) == 0 {
		return nil, specErrf("grid.qs", "kstar jobs need the overlap (Qs) and channel (Ps) axes")
	}
	if len(s.Grid.Ks) > 0 || len(s.Grid.Xs) > 0 {
		return nil, specErrf("grid.ks", "kstar jobs derive the ring size from the eq. (9) threshold; leave the Ks and Xs axes empty")
	}
	if len(s.Classes) > 0 {
		return nil, specErrf("classes", "the K* threshold covers the q-composite scheme; heterogeneous classes are not supported")
	}
	if s.Channel != nil {
		return nil, specErrf("channel", "kstar jobs model an on/off channel driven by the Ps axis; leave the channel spec empty")
	}
	grid := s.Grid.Grid()
	for _, pt := range grid.Points() {
		if _, err := theory.ThresholdRingSize(s.Sensors, s.Pool, pt.Q, pt.P); err != nil {
			return nil, specErrf("spec", "grid point %v: %v", pt, err)
		}
	}
	return &jobPlan{
		kind:  experiment.KindProportion,
		label: fmt.Sprintf("sweepserve/kstar n=%d pool=%d", s.Sensors, s.Pool),
		grid:  grid,
		trialBuild: experiment.ConnectivityTrials(func(pt experiment.GridPoint) (wsn.Config, error) {
			exact, err := theory.ThresholdRingSize(s.Sensors, s.Pool, pt.Q, pt.P)
			if err != nil {
				return wsn.Config{}, err
			}
			scheme, err := keys.NewQComposite(s.Pool, exact, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: s.Sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		}),
	}, nil
}

// compileCampaign lowers a campaign job onto experiment.SweepCampaign: the
// Xs axis carries attack budgets, each point runs the budget-truncated
// timeline.
func (s *JobSpec) compileCampaign() (*jobPlan, error) {
	timeline, err := adversary.ParseTimeline(s.Timeline)
	if err != nil {
		return nil, specErrf("timeline", "%v", err)
	}
	if len(timeline) == 0 {
		return nil, specErrf("timeline", "campaign jobs need a non-empty attack timeline (e.g. \"capture:10,fail:5\")")
	}
	if len(s.Grid.Xs) == 0 {
		return nil, specErrf("grid.xs", "campaign jobs sweep the attack budget on the Xs axis; it must not be empty")
	}
	for _, x := range s.Grid.Xs {
		if x < 0 || float64(int(x)) != x {
			return nil, specErrf("grid.xs", "attack budget %v is not a non-negative integer", x)
		}
	}
	grid := s.Grid.Grid()
	if err := s.validatePoints(grid); err != nil {
		return nil, err
	}
	return &jobPlan{
		kind: experiment.KindMeanVec(experiment.CampaignDims),
		label: fmt.Sprintf("sweepserve/campaign n=%d pool=%d scheme=%s channel=%s timeline=%q",
			s.Sensors, s.Pool, s.schemeLabel(), s.channelLabel(), s.Timeline),
		grid: grid,
		campaign: &experiment.CampaignSpec{
			Timeline: timeline,
			Build:    s.configFor,
		},
	}, nil
}
