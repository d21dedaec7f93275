package sweepserve

import (
	"bytes"
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

// Job is one sweep, shared by every submission of its spec. All mutable
// state is guarded by mu; readers take snapshots via Status and block on
// change via await.
type Job struct {
	// id is the sweep fingerprint (jobPlan.id).
	id   string
	kind string
	// plan is the compiled spec. Only the worker running the job reads it;
	// finish drops it, so a terminal job holds no grid or trial builder.
	plan *jobPlan
	// submitted is the Manager's submission count at this job's latest
	// submission: eviction drops the terminal job with the smallest. Guarded
	// by the Manager's mu.
	submitted uint64

	mu       sync.Mutex
	state    string
	progress Progress
	result   *JobResult
	// csv is result rendered by JobResult.RenderCSV at the first CSV fetch
	// (see renderedCSV); later fetches serve these bytes. A job read only
	// as JSON holds none.
	csv []byte
	err error
	// update is closed and replaced on every state/progress change; waiters
	// grab the current channel under mu and select on it.
	update chan struct{}
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.kind, State: j.state, Progress: j.progress}
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

// renderedCSV returns result, the done job's Result, rendered by
// JobResult.RenderCSV. The first call renders it and keeps the bytes; later
// calls return those. It renders outside mu, so a long render holds up
// neither Status nor Submit, which reads Status under the Manager's lock.
// Two first calls may both render; the first to finish is kept.
func (j *Job) renderedCSV(result *JobResult) ([]byte, error) {
	j.mu.Lock()
	csv := j.csv
	j.mu.Unlock()
	if csv != nil {
		return csv, nil
	}
	var buf bytes.Buffer
	if err := result.RenderCSV(&buf); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.csv == nil {
		// An exact-size copy: the buffer's backing array carries growth
		// slack (up to half of it) for as long as the job lives. make sets
		// cap to len; bytes.Clone's append would round cap up.
		j.csv = make([]byte, buf.Len())
		copy(j.csv, buf.Bytes())
	}
	return j.csv, nil
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

// terminal reports whether the job is done or failed.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
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

// MaxTerminalJobs bounds the done and failed jobs a Manager keeps. Past it,
// the least recently submitted terminal job is evicted: its ID answers 404
// until its spec is submitted again, and that job is served from the store.
// Queued and running jobs are never evicted; QueueDepth bounds them.
const MaxTerminalJobs = 256

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
	// jobs maps a job ID — the sweep fingerprint of its spec — to the job.
	// A spec whose job is queued, running or done gets that job back; a
	// failed job is replaced by a fresh run under the same ID.
	jobs map[string]*Job
	// terminal counts the done and failed jobs in the table.
	terminal int
	// submissions counts accepted submissions; it orders jobs for eviction.
	submissions uint64
	// coalesced counts submissions served by a job the table already held.
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
		opts:   opts,
		store:  opts.Store,
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, opts.QueueDepth),
		jobs:   map[string]*Job{},
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
	return experiment.SweepProportion(ctx, plan.grid, plan.config(trialWorkers, pointWorkers), plan.trialBuild)
}

// Submit validates a spec and returns its job. The returned bool reports
// coalescing: true means the table already held the spec's job, queued,
// running or done, and that job is returned as it is. Otherwise a new job —
// the first of its spec, the re-run of a failed one, or the return of an
// evicted one — is queued under the spec's ID.
func (m *Manager) Submit(spec JobSpec) (*Job, bool, error) {
	plan, err := spec.compile()
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrShuttingDown
	}
	old, ok := m.jobs[plan.id]
	if ok && old.Status().State != StateFailed {
		m.submissions++
		old.submitted = m.submissions
		m.coalesced++
		return old, true, nil
	}
	j := &Job{
		id:       plan.id,
		kind:     spec.Kind,
		plan:     plan,
		state:    StateQueued,
		progress: Progress{Total: plan.grid.Len()},
		update:   make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		return nil, false, ErrQueueFull
	}
	if ok {
		m.terminal-- // the failed job it replaces
	}
	m.submissions++
	j.submitted = m.submissions
	m.jobs[j.id] = j
	return j, false, nil
}

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs reports how many jobs the table holds.
func (m *Manager) Jobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Coalesced reports how many submissions were served by a job the table
// already held.
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

	cfg := j.plan.config(m.opts.TrialWorkers, m.opts.PointWorkers)
	resume, _, err := m.store.resumeFor(j.plan)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	cfg.Resume = resume
	cfg.Checkpoint, err = m.store.checkpointer(j.plan)
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
	result.Kind = j.kind
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

// finish moves a job to its terminal state, with its result or its error,
// drops its plan, and evicts the least recently submitted terminal jobs
// past MaxTerminalJobs. The state changes under the manager's lock, so
// Submit never sees a terminal job that is not counted.
func (m *Manager) finish(j *Job, result *JobResult, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.result = result
	}
	j.plan = nil
	j.notifyLocked()
	j.mu.Unlock()

	m.terminal++
	for m.terminal > MaxTerminalJobs {
		var victim *Job
		for _, t := range m.jobs {
			if t.terminal() && (victim == nil || t.submitted < victim.submitted) {
				victim = t
			}
		}
		delete(m.jobs, victim.id)
		m.terminal--
	}
}
