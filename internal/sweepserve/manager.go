package sweepserve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Submit failures that are the server's condition rather than the client's
// spec; the HTTP layer maps them to 503 Service Unavailable instead of 400.
var (
	// ErrQueueFull rejects a submission when the job queue is saturated.
	ErrQueueFull = errors.New("sweepserve: job queue full")
	// ErrShuttingDown rejects submissions after Close, and is the terminal
	// error of jobs still queued when the server shut down.
	ErrShuttingDown = errors.New("sweepserve: server shutting down")
)

// Progress counts a job's grid points. Cached points were resolved from the
// shared store (other jobs' work, or a previous server life via the journal
// file); Done includes them.
type Progress struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
}

// JobStatus is the pollable snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    string   `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// Job is one submitted sweep. All mutable state is guarded by mu; readers
// take snapshots via Status and block on change via await.
type Job struct {
	id   string
	spec JobSpec
	plan *jobPlan
	cfg  experiment.SweepConfig

	mu       sync.Mutex
	state    string
	progress Progress
	result   *JobResult
	err      error
	// update is closed and replaced on every state/progress change; waiters
	// grab the current channel under mu and select on it.
	update chan struct{}
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.spec.Kind, State: j.state, Progress: j.progress}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the terminal payload, or an error while the job is not done.
func (j *Job) Result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, fmt.Errorf("sweepserve: job %s failed: %w", j.id, j.err)
	}
	return nil, fmt.Errorf("sweepserve: job %s is %s; result not ready", j.id, j.state)
}

// await returns a channel that closes on the next state/progress change,
// plus whether the job is already terminal (in which case waiting is moot).
func (j *Job) await() (<-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.update, j.state == StateDone || j.state == StateFailed
}

// notifyLocked closes and replaces the update channel. Callers hold mu.
func (j *Job) notifyLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.notifyLocked()
}

// Options configures a Manager.
type Options struct {
	// Store is the shared result cache; nil gets a fresh memory-only store.
	Store *Store
	// JobWorkers bounds concurrently executing jobs. The default 1
	// serializes job execution — submissions still return immediately and
	// queue — which maximizes cross-job cache reuse (a job sees every point
	// of the jobs ahead of it). Values > 1 are safe with a file-backed
	// store: the checkpointer keeps interleaved sections restorable.
	JobWorkers int
	// QueueDepth bounds jobs queued behind the workers; 0 means 1024. A
	// full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// PointWorkers and TrialWorkers are handed to the sweep engine
	// (SweepConfig.PointWorkers, montecarlo.Config.Workers). Scheduling
	// knobs only: never part of result identity.
	PointWorkers int
	TrialWorkers int
	// WrapTrialBuild, when set, wraps every proportion-kind job's trial
	// builder — the seam the integration suite uses to splice
	// faultinject.Injector faults into server-executed sweeps.
	WrapTrialBuild func(build func(pt experiment.GridPoint) (montecarlo.Trial, error)) func(pt experiment.GridPoint) (montecarlo.Trial, error)
}

// Manager owns the job table and the bounded worker pool that executes jobs
// on the sweep fabric.
type Manager struct {
	opts  Options
	store *Store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	// inflight maps a sweep fingerprint to its queued-or-running job:
	// submitting an identical spec while one is active coalesces onto it.
	// Terminal jobs leave the table — a re-submission becomes a new job that
	// resolves (near-)fully from the store instead.
	inflight map[string]*Job
	// coalesced counts submissions absorbed by an active identical job.
	coalesced int
}

// NewManager starts a manager and its workers.
func NewManager(opts Options) *Manager {
	if opts.Store == nil {
		opts.Store = NewStore()
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:     opts,
		store:    opts.Store,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
	for range opts.JobWorkers {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close stops accepting submissions, cancels running sweeps, waits for the
// workers to drain, then fails every job still queued — so all jobs reach a
// terminal state and their SSE/long-poll watchers get a final event instead
// of hanging through the HTTP drain window. Completed points are already
// journaled, so a close mid-job loses only the points still in flight.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	// Workers are gone and Submit rejects, so the queue can only shrink.
	for {
		select {
		case j := <-m.queue:
			m.finish(j, nil, ErrShuttingDown)
		default:
			return
		}
	}
}

// Store exposes the shared cache (for stats endpoints).
func (m *Manager) Store() *Store { return m.store }

// sweepConfig builds the engine configuration of a compiled job. The label
// is the plan's canonical label, so every spec detail the build closures
// bake in (scheme, channel, bindings, n, pool, …) is part of the journal
// identity even though the closures themselves cannot be fingerprinted.
// The worker counts are scheduling knobs only.
func sweepConfig(plan *jobPlan, spec *JobSpec, trialWorkers, pointWorkers int) experiment.SweepConfig {
	return experiment.SweepConfig{
		Trials:       spec.Trials,
		Seed:         spec.Seed,
		Workers:      trialWorkers,
		PointWorkers: pointWorkers,
		JournalLabel: plan.label,
	}
}

// RunLocal runs a proportion-kind job in process, without a server or a
// store: the compiled plan's grid and trial builder through
// experiment.SweepProportion, exactly what a Manager executes, so the
// estimates are bit-identical to the job's. trialWorkers and pointWorkers
// play the roles of Options.TrialWorkers and Options.PointWorkers.
func RunLocal(ctx context.Context, spec JobSpec, trialWorkers, pointWorkers int) ([]experiment.ProportionResult, error) {
	plan, err := spec.compile()
	if err != nil {
		return nil, err
	}
	if plan.trialBuild == nil {
		return nil, fmt.Errorf("sweepserve: job kind %q does not estimate a proportion", spec.Kind)
	}
	cfg := sweepConfig(plan, &spec, trialWorkers, pointWorkers)
	return experiment.SweepProportion(ctx, plan.grid, cfg, plan.trialBuild)
}

// Submit validates, registers and enqueues a job. The returned bool reports
// coalescing: true means the spec matched an active identical job and that
// job is returned instead of a new one.
func (m *Manager) Submit(spec JobSpec) (*Job, bool, error) {
	plan, err := spec.compile()
	if err != nil {
		return nil, false, err
	}
	cfg := sweepConfig(plan, &spec, m.opts.TrialWorkers, m.opts.PointWorkers)
	fingerprint, _ := cfg.JournalFingerprint(plan.kind, plan.grid)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrShuttingDown
	}
	if j, ok := m.inflight[fingerprint]; ok {
		m.coalesced++
		return j, true, nil
	}
	m.nextID++
	j := &Job{
		id:       fmt.Sprintf("job-%d", m.nextID),
		spec:     spec,
		plan:     plan,
		cfg:      cfg,
		state:    StateQueued,
		progress: Progress{Total: plan.grid.Len()},
		update:   make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.inflight[fingerprint] = j
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		delete(m.inflight, fingerprint)
		return nil, false, ErrQueueFull
	}
	return j, false, nil
}

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Coalesced reports how many submissions were absorbed by active jobs.
func (m *Manager) Coalesced() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coalesced
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		// Check cancellation before draining the queue: once Close has
		// cancelled, queued jobs belong to Close's fail-them-all drain, and
		// a worker must not race it for them.
		select {
		case <-m.ctx.Done():
			return
		default:
		}
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job end to end: resolve cached points from the store into
// a resume stream, checkpoint fresh points back through it, and surface
// per-point progress.
func (m *Manager) run(j *Job) {
	j.setState(StateRunning)

	cfg := j.cfg
	resume, _, err := m.store.resumeFor(j.plan, cfg)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	cfg.Resume = resume
	cfg.Checkpoint, err = m.store.checkpointer(j.plan, cfg)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	cfg.PointDone = func(pt experiment.GridPoint, fromCache bool) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.progress.Done++
		if fromCache {
			j.progress.Cached++
		}
		j.notifyLocked()
	}

	var result JobResult
	result.Kind = j.spec.Kind
	switch {
	case j.plan.trialBuild != nil:
		build := j.plan.trialBuild
		if m.opts.WrapTrialBuild != nil {
			build = m.opts.WrapTrialBuild(build)
		}
		results, err := experiment.SweepProportion(m.ctx, j.plan.grid, cfg, build)
		if err != nil {
			m.finish(j, nil, err)
			return
		}
		result.Points = proportionResults(results)
	case j.plan.campaign != nil:
		results, err := experiment.SweepCampaign(m.ctx, j.plan.grid, cfg, *j.plan.campaign)
		if err != nil {
			m.finish(j, nil, err)
			return
		}
		result.VecPoints = vecResults(results)
	default:
		m.finish(j, nil, errors.New("sweepserve: job plan has no runner"))
		return
	}
	m.finish(j, &result, nil)
}

// finish moves a job to its terminal state and retires its fingerprint from
// the coalescing table.
func (m *Manager) finish(j *Job, result *JobResult, err error) {
	fingerprint, _ := j.cfg.JournalFingerprint(j.plan.kind, j.plan.grid)
	m.mu.Lock()
	if m.inflight[fingerprint] == j {
		delete(m.inflight, fingerprint)
	}
	m.mu.Unlock()

	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.result = result
	}
	j.notifyLocked()
}
