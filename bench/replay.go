package bench

import (
	"fmt"
	"math"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// streamDeploy is the deployment of a streaming trial: a q-composite scheme
// over an on/off channel, and the degree level of a min-degree trial (0 for
// a connectivity trial).
type streamDeploy struct {
	sensors int
	scheme  *keys.QComposite
	channel channel.OnOff
	degK    int
}

func newStreamDeploy(sensors, pool, ring, q int, p float64, degK int) (streamDeploy, error) {
	scheme, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		return streamDeploy{}, err
	}
	return streamDeploy{sensors: sensors, scheme: scheme, channel: channel.OnOff{P: p}, degK: degK}, nil
}

func (sd streamDeploy) config() wsn.Config {
	return wsn.Config{Sensors: sd.sensors, Scheme: sd.scheme, Channel: sd.channel}
}

// production runs the trial the way the sweeps do, through the Deployer's
// streaming entry points.
func (sd streamDeploy) production(d *wsn.Deployer, r *rng.Rand) (wsn.DegreeStats, error) {
	if sd.degK > 0 {
		return d.DeployDegreeStatsRand(r, sd.degK)
	}
	st, err := d.DeployConnectivityRand(r)
	return wsn.DegreeStats{ConnStats: st}, err
}

// tracedStreamTrial returns the traced trial of a streaming sweep point: a
// Deployer from a pool for sd makes the production call, tracedTrial
// replays it, and verdict turns the statistics into the trial's outcome.
func (r *runner) tracedStreamTrial(sd streamDeploy, parent int64, trace string,
	verdict func(wsn.DegreeStats) bool) (montecarlo.Trial, error) {
	dp, err := wsn.NewDeployerPool(sd.config())
	if err != nil {
		return nil, err
	}
	return func(_ int, rnd *rng.Rand) (bool, error) {
		d := dp.Get()
		defer dp.Put(d)
		st, err := tracedTrial(r.tr, trace, parent, sd, *rnd, func() (wsn.DegreeStats, error) {
			return sd.production(d, rnd)
		})
		return verdict(st), err
	}, nil
}

// replayer re-runs streaming trials stage by stage. Its buffers are reused
// across trials; one replayer serves one goroutine at a time.
type replayer struct {
	arena  keys.RingArena
	pool   int
	ix     *keys.Intersector
	uf     graphalgo.StreamUnionFind
	deg    graphalgo.StreamDegrees
	src    rng.GeometricSource
	edges  []uint64 // emitted channel edges, u<<32 | v
	secure []uint64 // the edges that passed the q-overlap test
	sink   int      // keeps the skip draws from being optimised away
}

var replayers = sync.Pool{New: func() any { return new(replayer) }}

// tracedTrial makes the production call prod, timed as a wsn.trial span,
// then replays the same trial from r0 — the generator state prod starts
// from — through the public stages, each timed as a replay child of the
// trial: keys.assign (QComposite.AssignInto), keys.index
// (Intersector.Reset), channel.emit (OnOff.EmitEdges into a buffer, for the
// prefix the production call consumed before its early exit) with its
// rng.skip child (GeometricSource.Next per draw), keys.intersect
// (Intersector.HasAtLeast over the buffer) and graphalgo.sink
// (StreamUnionFind.Add, and StreamDegrees.Add for min-degree trials). What
// the stages do not account for is the trial's self time, wsn.residual. The
// replay must reproduce the production result; it returns an error if not.
func tracedTrial(t *tracer, trace string, parent int64, sd streamDeploy, r0 rng.Rand,
	prod func() (wsn.DegreeStats, error)) (wsn.DegreeStats, error) {
	sp := t.start(trace, "wsn.trial", parent)
	want, err := prod()
	t.finish(sp)
	if err != nil {
		return want, err
	}
	rp := replayers.Get().(*replayer)
	defer replayers.Put(rp)
	rs := t.start(trace, replayName, parent)
	err = rp.replay(t, trace, sp.ID, sd, r0, want)
	t.finish(rs)
	return want, err
}

func (rp *replayer) replay(t *tracer, trace string, trial int64, sd streamDeploy, r rng.Rand, want wsn.DegreeStats) error {
	stage := func(name string, parent int64) Span {
		s := t.start(trace, name, parent)
		s.Replay = true
		return s
	}
	n, q, p := sd.sensors, sd.scheme.RequiredOverlap(), sd.channel.P

	sp := stage("keys.assign", trial)
	asg, err := sd.scheme.AssignInto(&r, n, &rp.arena)
	t.finish(sp)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	if pool := sd.scheme.PoolSize(); rp.ix == nil || rp.pool != pool {
		if rp.ix, err = keys.NewIntersector(pool); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rp.pool = pool
	}
	sp = stage("keys.index", trial)
	err = rp.ix.Reset(asg.Rings)
	sp.Counts = map[string]int64{"dense": b2i(rp.ix.Dense())}
	t.finish(sp)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	// The channel draw starts from the generator state assignment left.
	// An untimed fused pass in production order finds how many edges the
	// production call consumed and checks that the stages reproduce it.
	emitFrom := r
	consumed, exited, got, err := rp.fused(sd, emitFrom)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("replay: stages give %+v, production gave %+v", got, want)
	}

	emit := stage("channel.emit", trial)
	re := emitFrom
	rp.edges = rp.edges[:0]
	err = sd.channel.EmitEdges(&re, n, func(u, v int32) bool {
		if len(rp.edges) >= consumed {
			return false
		}
		rp.edges = append(rp.edges, uint64(u)<<32|uint64(uint32(v)))
		return len(rp.edges) < consumed
	})
	emit.Counts = map[string]int64{
		"edges":    int64(len(rp.edges)),
		"expected": int64(math.Round(float64(n) * float64(n-1) / 2 * p)),
	}
	t.finish(emit)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	// One skip draw precedes every emitted edge of a 0 < p < 1 draw, plus
	// the draw that ran off the end when the stream was not stopped early.
	draws := 0
	if p > 0 && p < 1 {
		draws = consumed
		if !exited {
			draws++
		}
	}
	sk := stage("rng.skip", emit.ID)
	rs := emitFrom
	rp.src.Reset(&rs)
	if draws > 0 {
		rp.src.SetP(p)
	}
	for range draws {
		rp.sink += rp.src.Next()
	}
	sk.Counts = map[string]int64{"draws": int64(draws)}
	t.finish(sk)

	sp = stage("keys.intersect", trial)
	rp.secure = rp.secure[:0]
	for _, e := range rp.edges {
		if rp.ix.HasAtLeast(int32(e>>32), int32(uint32(e)), q) {
			rp.secure = append(rp.secure, e)
		}
	}
	sp.Counts = map[string]int64{"calls": int64(len(rp.edges)), "secure": int64(len(rp.secure))}
	t.finish(sp)

	sp = stage("graphalgo.sink", trial)
	rp.uf.Reset(n)
	if sd.degK > 0 {
		rp.deg.Reset(n, sd.degK)
	}
	merges := 0
	for _, e := range rp.secure {
		u, v := int32(e>>32), int32(uint32(e))
		if rp.uf.Add(u, v) {
			merges++
		}
		if sd.degK > 0 {
			rp.deg.Add(u, v)
		}
	}
	sp.Counts = map[string]int64{"adds": int64(len(rp.secure)), "merges": int64(merges)}
	t.finish(sp)
	if got := rp.stats(sd); got != want {
		return fmt.Errorf("replay: sink stage gives %+v, production gave %+v", got, want)
	}
	return nil
}

// fused streams the channel draw through the intersector into the sinks
// exactly as the production call does, stopping at the same point. It
// returns the edges consumed, whether the stream stopped early, and the
// resulting statistics.
func (rp *replayer) fused(sd streamDeploy, r rng.Rand) (consumed int, exited bool, st wsn.DegreeStats, err error) {
	q := sd.scheme.RequiredOverlap()
	rp.uf.Reset(sd.sensors)
	if sd.degK > 0 {
		rp.deg.Reset(sd.sensors, sd.degK)
	}
	done := func() bool { return rp.uf.Done() && (sd.degK == 0 || rp.deg.AllAtLeastK()) }
	err = sd.channel.EmitEdges(&r, sd.sensors, func(u, v int32) bool {
		consumed++
		if rp.ix.HasAtLeast(u, v, q) {
			rp.uf.Add(u, v)
			if sd.degK > 0 {
				rp.deg.Add(u, v)
			}
		}
		exited = done()
		return !exited
	})
	if err != nil {
		return 0, false, st, fmt.Errorf("replay: %w", err)
	}
	return consumed, exited, rp.stats(sd), nil
}

// stats reads the sinks the way wsn.Deployer reports them.
func (rp *replayer) stats(sd streamDeploy) wsn.DegreeStats {
	st := wsn.DegreeStats{ConnStats: wsn.ConnStats{
		Connected:  rp.uf.Connected(),
		Components: rp.uf.Components(),
		Giant:      rp.uf.GiantSize(),
		Isolated:   rp.uf.IsolatedCount(),
	}}
	if sd.degK > 0 {
		st.K = sd.degK
		st.MinDegreeAtLeastK = rp.deg.AllAtLeastK()
		st.MinDegree = min(rp.deg.MinDegree(), sd.degK)
		st.BelowK = rp.deg.BelowK()
	}
	return st
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
