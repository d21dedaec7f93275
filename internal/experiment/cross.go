package experiment

// The cross-sweep layer: phase-transition studies that drive a CHANNEL
// parameter (disk radius, on/off probability) or the connectivity level k on
// the Grid's Xs axis, orthogonally to the scheme axes (K, q, p). The paper's
// headline comparisons have this shape — the on/off-vs-disk surface of
// Section IX sweeps radius against q-composite parameters, and the
// heterogeneous k-connectivity study (Eletreby–Yağan, arXiv:1604.00460 §IV;
// Zhao–Yağan–Gligor, arXiv:1206.1531) sweeps k against ring sizes.
//
// A CrossSpec declares what the Xs axis means via explicit bindings, so a
// grid axis can never silently drive two model quantities at once: binding
// the axis to both k and a radius (or binding a channel parameter while the
// build callback also supplies a channel) is a validation error, not a
// precedence rule. Every trial runs one verdict-only deployment through a
// per-point wsn.DeployerPool, so cross sweeps run on the zero-allocation
// trial loop, shard bit-identically under SweepConfig.PointWorkers, and
// derive per-point seeds from parameters like every other sweep.

import (
	"context"
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// XBinding names the model quantity a cross sweep's Xs axis drives.
type XBinding uint8

const (
	// BindK binds the Xs axis to the connectivity level k: values must be
	// positive integers stored exactly (KLevels produces them) and each
	// point decides k-connectivity at its own level.
	BindK XBinding = iota + 1
	// BindDiskRadius binds the Xs axis to the disk-channel radius: each
	// point deploys under channel.Disk{Radius: pt.X, Torus: spec.Torus}.
	BindDiskRadius
	// BindChannelOn binds the Xs axis to an on/off channel probability:
	// each point deploys under channel.OnOff{P: pt.X}. This frees the Ps
	// axis to parameterise the scheme side (or stay degenerate) while the
	// channel sweeps independently.
	BindChannelOn
)

// String implements fmt.Stringer so binding conflicts read clearly.
func (b XBinding) String() string {
	switch b {
	case BindK:
		return "connectivity level k"
	case BindDiskRadius:
		return "disk radius"
	case BindChannelOn:
		return "channel-on probability"
	}
	return fmt.Sprintf("XBinding(%d)", uint8(b))
}

// CrossSpec configures one cross sweep.
type CrossSpec struct {
	// Bindings declare what the Xs axis drives — at most one binding. An
	// empty list leaves the axis free (experiment-defined, the historical
	// Grid contract); listing two quantities is a validation error because
	// one grid axis cannot drive both.
	Bindings []XBinding
	// Torus selects wraparound disk distances under BindDiskRadius, making
	// the marginal pair probability exactly π·r² (the comparison knob
	// against on/off channels).
	Torus bool
	// K is the fixed connectivity level tested at every point when the Xs
	// axis does not carry it; 0 means plain connectivity (k = 1). Setting K
	// together with BindK is a validation error — the level would be bound
	// twice.
	K int
	// Build returns the deployment of a grid point: sensor count and scheme
	// always, and the channel model only when no channel binding is active
	// (a bound channel is derived from pt.X and must not also come from
	// Build).
	Build func(pt GridPoint) (wsn.Config, error)
}

// Validate checks the spec against the grid it will sweep: exactly-once
// axis bindings, a consistent fixed level, and Xs values that are legal for
// the bound quantity — eagerly, so misconfigured sweeps fail before any
// deployment work.
func (s CrossSpec) Validate(grid Grid) error {
	if s.Build == nil {
		return fmt.Errorf("experiment: cross sweep needs a Build callback")
	}
	if s.K < 0 {
		return fmt.Errorf("experiment: cross sweep connectivity level K = %d must be ≥ 0", s.K)
	}
	if len(s.Bindings) > 1 {
		return fmt.Errorf("experiment: grid Xs axis bound twice (%v and %v): one axis cannot drive two model quantities — split them across sweeps or axes",
			s.Bindings[0], s.Bindings[1])
	}
	for _, b := range s.Bindings {
		switch b {
		case BindK:
			if s.K != 0 {
				return fmt.Errorf("experiment: connectivity level bound twice: CrossSpec.K = %d and the Xs axis both carry k", s.K)
			}
			for _, x := range grid.Xs {
				if _, err := KOf(GridPoint{X: x}); err != nil {
					return err
				}
			}
		case BindDiskRadius:
			for _, x := range grid.Xs {
				if err := (channel.Disk{Radius: x, Torus: s.Torus}).Validate(); err != nil {
					return fmt.Errorf("experiment: Xs value %v is not a disk radius: %w", x, err)
				}
			}
		case BindChannelOn:
			for _, x := range grid.Xs {
				if err := (channel.OnOff{P: x}).Validate(); err != nil {
					return fmt.Errorf("experiment: Xs value %v is not an on probability: %w", x, err)
				}
			}
		default:
			return fmt.Errorf("experiment: unknown Xs axis binding %v", b)
		}
	}
	return nil
}

// pointDeployment resolves the wsn.Config and connectivity level of one grid
// point under the spec's bindings.
func (s CrossSpec) pointDeployment(pt GridPoint) (wsn.Config, int, error) {
	k := s.K
	if k == 0 {
		k = 1
	}
	cfg, err := s.Build(pt)
	if err != nil {
		return wsn.Config{}, 0, err
	}
	for _, b := range s.Bindings {
		switch b {
		case BindK:
			if k, err = KOf(pt); err != nil {
				return wsn.Config{}, 0, err
			}
		case BindDiskRadius:
			if cfg.Channel != nil {
				return wsn.Config{}, 0, fmt.Errorf("experiment: point %v: channel bound twice: build supplied %q while the Xs axis carries the disk radius", pt, cfg.Channel.Name())
			}
			cfg.Channel = channel.Disk{Radius: pt.X, Torus: s.Torus}
		case BindChannelOn:
			if cfg.Channel != nil {
				return wsn.Config{}, 0, fmt.Errorf("experiment: point %v: channel bound twice: build supplied %q while the Xs axis carries the on probability", pt, cfg.Channel.Name())
			}
			cfg.Channel = channel.OnOff{P: pt.X}
		}
	}
	return cfg, k, nil
}

// CrossSweep estimates P[k-connected] at every grid point with the Xs axis
// interpreted per spec. Each point builds its deployment from the scheme
// axes (and the bound quantity), runs its trials through a dedicated
// wsn.DeployerPool, and tests connectivity at the point's level — so the
// sweep composes with PointWorkers sharding, parameter-derived seeds, and
// the allocation-free trial loop like every SweepProportion workload.
//
// Every point, whatever its level, runs the verdict-only trial
// wsn.Deployer.KConnectedRand (see PointTrial): the channel draw streams
// into union-find and degree sinks and stops once the verdict is decided,
// and only a k ≥ 2 point whose network spans with every degree ≥ k builds
// a CSR graph for the exact k-connectivity decision. The verdicts equal
// DeployRand + IsKConnected at every level, so mixed-level sweeps (e.g. a
// BindK grid with levels {1, 2, 3}) stay bit-for-bit reproducible.
func CrossSweep(ctx context.Context, grid Grid, cfg SweepConfig, spec CrossSpec) ([]ProportionResult, error) {
	if err := spec.Validate(grid); err != nil {
		return nil, err
	}
	return SweepProportion(ctx, grid, cfg, spec.PointTrial)
}

// PointTrial resolves one grid point's deployment and level under the
// spec's bindings and returns its CrossSweep trial: KConnectedRand at the
// point's level on a Deployer borrowed from a dedicated pool. Exported so
// orchestration layers (the sweep server) reproduce CrossSweep exactly
// while owning the trial loop themselves; validate the spec first.
func (s CrossSpec) PointTrial(pt GridPoint) (montecarlo.Trial, error) {
	deployCfg, k, err := s.pointDeployment(pt)
	if err != nil {
		return nil, err
	}
	dp, err := wsn.NewDeployerPool(deployCfg)
	if err != nil {
		return nil, err
	}
	return func(trial int, r *rng.Rand) (bool, error) {
		d := dp.Get()
		defer dp.Put(d)
		return d.KConnectedRand(r, k)
	}, nil
}
