package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// runSweepd is the service workload: an in-process sweepserve Manager and
// Server on loopback httptest with a file-backed Store (one job worker,
// Workers trial workers), and one client that submits a job, follows its
// SSE event stream to the terminal event and fetches the CSV — SSE rather
// than Client.Wait, whose 50 ms poll would round every latency.
//
// The measuring time starts with coldPhases cold phases, each on a fresh
// service and journal: ColdJobs jobs, mostly overlapping 4K×2p connectivity
// windows plus min-degree and campaign jobs (coldSpecs); wall_s is their
// median wall time. Then each round restarts the service from a copy of the
// last cold journal — set-up is OpenStore until the first job is done — and
// serves WarmPerRound resubmitted cold specs, all from the store; the
// operation is one warm job, so its latency is HTTP, JSON and store work
// only. Copying the journal keeps rounds independent: warm jobs append to
// it, and a growing journal would slow every later restart.
//
// Gates: every job is done; each cold phase's misses equal the distinct
// cold points and its CSVs equal the first phase's byte for byte; a
// restarted store restores every point; every warm CSV is byte-equal to the
// cold CSV of its spec; the first connectivity and the first min-degree spec
// equal their offline experiment sweeps.
func runSweepd(r *runner) error {
	sc := r.Scale.Sweepd
	specs := coldSpecs(sc, r.Seed)
	distinct := distinctPoints(specs)
	coldPath := filepath.Join(r.dir, "cold.journal")

	r.measure()
	var first, cold coldRun
	for c := range coldPhases {
		if err := os.Remove(coldPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		svc, err := openService(coldPath, nil, "", 0)
		if err != nil {
			return err
		}
		start := time.Now()
		cold, err = r.runCold(svc, specs)
		if r.tr == nil {
			r.walls = append(r.walls, time.Since(start).Seconds())
		}
		if err == nil {
			r.check(cold.stats.Misses == distinct, "cold phase %d ran %d points, want the %d distinct cold points",
				c, cold.stats.Misses, distinct)
			if c == 0 {
				first = cold
			} else {
				r.check(maps.EqualFunc(cold.csv, first.csv, bytes.Equal), "cold phase %d's CSVs differ from the first's", c)
			}
		}
		if err == nil && c == coldPhases-1 {
			err = r.offlineCheck(svc, cold)
			if err == nil && r.tr != nil {
				err = r.replayCold(svc, cold)
			}
		}
		if cerr := svc.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	hits, misses, rejected := cold.stats.Hits, cold.stats.Misses, cold.rejected
	var growth, warmJobs int64
	var heapPerJob []float64
	path := filepath.Join(r.dir, "round.journal")
	for i := 0; r.more(i); i++ {
		var tr *tracer
		if r.traced(i) {
			tr = r.tr
		}
		if err := copyFile(coldPath, path); err != nil {
			return err
		}
		size0, err := fileSize(path)
		if err != nil {
			return err
		}
		pick := rng.New(r.roundSeed(i))
		trace := fmt.Sprintf("sweepd/r%d", i)
		start := time.Now()
		restart := tr.start(trace+"/restart", "sweepserve.restart", 0)
		svc, err := openService(path, tr, restart.Trace, restart.ID)
		if err != nil {
			return err
		}
		var heap0 uint64
		differ := 0
		for j := range sc.WarmPerRound {
			spec := cold.unique[pick.Intn(len(cold.unique))]
			// The first job completes the restart; it is timed as part of
			// the sweepserve.restart span, not as an operation.
			jtr, jobTrace := tr, ""
			if j == 0 {
				jtr = nil
			} else if tr != nil {
				jobTrace = fmt.Sprintf("%s/job%d", trace, j)
			}
			t0 := time.Now()
			_, csv, err := svc.job(r.ctx, spec, jtr, jobTrace)
			if err != nil {
				svc.close()
				return fmt.Errorf("round %d warm job %d: %w", i, j, err)
			}
			d := time.Since(t0)
			switch {
			case j == 0:
				tr.finish(restart)
				r.setup = append(r.setup, time.Since(start).Seconds())
				r.attempted++
				r.check(svc.store.Stats().Restored == distinct, "restart %d restored %d points, want %d",
					i, svc.store.Stats().Restored, distinct)
				if tr != nil {
					heap0 = heapAfterGC()
				}
			case tr == nil:
				r.op(d)
			default:
				r.attempted++
			}
			if !bytes.Equal(csv, cold.csv[specKey(spec)]) {
				differ++
			}
		}
		if tr != nil && sc.WarmPerRound > 1 {
			heapPerJob = append(heapPerJob,
				(float64(heapAfterGC())-float64(heap0))/1024/float64(sc.WarmPerRound-1))
		}
		r.heapSample()
		st := svc.store.Stats()
		hits, misses, rejected = hits+st.Hits, misses+st.Misses, rejected+svc.rejected
		r.check(differ == 0, "round %d: %d warm CSVs differ from the cold CSV of their spec", i, differ)
		r.check(st.Misses == 0, "round %d ran %d points; warm jobs must be served from the store", i, st.Misses)
		if err := svc.close(); err != nil {
			return err
		}
		size1, err := fileSize(path)
		if err != nil {
			return err
		}
		growth += size1 - size0
		warmJobs += int64(sc.WarmPerRound)
	}
	r.layer["sweepserve.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	r.layer["sweepserve.misses"] = float64(cold.stats.Misses)
	r.layer["sweepserve.journal_bytes_per_warm_job"] = float64(growth) / float64(max(warmJobs, 1))
	r.layer["sweepserve.rejected"] = float64(rejected)
	if len(heapPerJob) > 0 {
		r.layer["sweepserve.heap_kb_per_job"] = median(heapPerJob)
	}
	return nil
}

// coldPhases is how many cold phases a run measures. One ~3 s phase is a
// single sample of a host whose speed drifts by seconds-long spells; the
// median of three is steadier.
const coldPhases = 3

// coldRun is the outcome of one cold phase.
type coldRun struct {
	csv      map[string][]byte // spec → CSV
	ids      map[string]string // spec → job id
	unique   []sweepserve.JobSpec
	stats    sweepserve.StoreStats
	rejected int
}

// runCold runs every cold spec through svc, checking that a repeated spec
// gives the same CSV.
func (r *runner) runCold(svc *service, specs []sweepserve.JobSpec) (coldRun, error) {
	cr := coldRun{csv: map[string][]byte{}, ids: map[string]string{}}
	for i, spec := range specs {
		id, csv, err := svc.job(r.ctx, spec, nil, "")
		if err != nil {
			return cr, fmt.Errorf("cold job %d: %w", i, err)
		}
		r.attempted++
		key := specKey(spec)
		if prev, ok := cr.csv[key]; ok {
			r.check(bytes.Equal(prev, csv), "cold job %d: repeated spec gave a different CSV", i)
			continue
		}
		cr.csv[key], cr.ids[key] = csv, id
		cr.unique = append(cr.unique, spec)
	}
	cr.stats, cr.rejected = svc.store.Stats(), svc.rejected
	return cr, nil
}

// coldSpecs generates the cold jobs: every 4K×2p connectivity window of the
// ladders, 2K×2p min-degree windows tiling the K ladder at the two largest
// p, and one campaign spec, repeated up to ColdJobs jobs in an order the
// seed shuffles. The distinct points, and so the cold phase's work, are the
// same for every seed; the seed sets the order and the jobs' base seed.
func coldSpecs(sc SweepdScale, seed uint64) []sweepserve.JobSpec {
	base := rng.StreamSeed(seed, 1)
	spec := func(kind string, ks []int, ps []float64) sweepserve.JobSpec {
		return sweepserve.JobSpec{Kind: kind, Sensors: sc.Sensors, Pool: sc.Pool, Trials: sc.Trials, Seed: base,
			Grid: sweepserve.GridSpec{Ks: ks, Qs: []int{2}, Ps: ps}}
	}
	var distinct []sweepserve.JobSpec
	for k := 0; k+4 <= len(sc.Ks); k++ {
		for p := 0; p+2 <= len(sc.Ps); p++ {
			distinct = append(distinct, spec(sweepserve.KindConnectivity, sc.Ks[k:k+4], sc.Ps[p:p+2]))
		}
	}
	for k := 0; k+2 <= len(sc.Ks); k += 2 {
		md := spec(sweepserve.KindMinDegree, sc.Ks[k:k+2], sc.Ps[len(sc.Ps)-2:])
		md.K = 2
		distinct = append(distinct, md)
	}
	capture := max(1, sc.Sensors/20)
	camp := spec(sweepserve.KindCampaign, sc.Ks[len(sc.Ks)/2:][:1], sc.Ps[len(sc.Ps)-1:])
	camp.Timeline = fmt.Sprintf("capture:%d", capture)
	camp.Grid.Xs = []float64{0, float64(capture)}
	distinct = append(distinct, camp)

	specs := make([]sweepserve.JobSpec, sc.ColdJobs)
	for i := range specs {
		specs[i] = distinct[i%len(distinct)]
	}
	rng.New(seed).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// distinctPoints counts the distinct grid points of the specs. Specs of one
// kind share every other part of their identity, so (kind, point) is the
// store's key.
func distinctPoints(specs []sweepserve.JobSpec) int {
	type key struct {
		kind string
		pt   pointKey
	}
	seen := map[key]bool{}
	for _, spec := range specs {
		for _, pt := range spec.Grid.Grid().Points() {
			seen[key{spec.Kind, pointKey{pt.K, pt.Q, pt.P, pt.X}}] = true
		}
	}
	return len(seen)
}

func specKey(spec sweepserve.JobSpec) string {
	b, _ := json.Marshal(spec) // a JobSpec always marshals
	return string(b)
}

// offlineCheck checks that the first cold connectivity and min-degree jobs
// equal the offline experiment sweeps of their specs.
func (r *runner) offlineCheck(svc *service, cold coldRun) error {
	for _, kind := range []string{sweepserve.KindConnectivity, sweepserve.KindMinDegree} {
		i := slices.IndexFunc(cold.unique, func(s sweepserve.JobSpec) bool { return s.Kind == kind })
		if i < 0 {
			continue
		}
		spec := cold.unique[i]
		id := cold.ids[specKey(spec)]
		jr, err := svc.client.Result(r.ctx, id)
		if err != nil {
			return err
		}
		cfg := experiment.SweepConfig{Trials: spec.Trials, Seed: spec.Seed, Workers: Workers}
		build := func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(spec.Pool, pt.K, pt.Q)
			return wsn.Config{Sensors: spec.Sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, err
		}
		var want []experiment.ProportionResult
		if kind == sweepserve.KindConnectivity {
			want, err = experiment.SweepConnectivity(r.ctx, spec.Grid.Grid(), cfg, build)
		} else {
			want, err = experiment.SweepMinDegree(r.ctx, spec.Grid.Grid(), cfg, spec.K, build)
		}
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(jr.Proportions(), want), "%s job %s differs from its offline sweep", kind, id)
	}
	return nil
}

// replayCold replays the trials of every fourth distinct cold connectivity
// point client-side, stage by stage, from the seeds the server derived, and
// checks that they reproduce the server's successes.
func (r *runner) replayCold(svc *service, cold coldRun) error {
	type point struct {
		spec      sweepserve.JobSpec
		pt        experiment.GridPoint
		successes int
	}
	seen := map[pointKey]bool{}
	var pts []point
	for _, spec := range cold.unique {
		if spec.Kind != sweepserve.KindConnectivity {
			continue
		}
		jr, err := svc.client.Result(r.ctx, cold.ids[specKey(spec)])
		if err != nil {
			return err
		}
		for _, res := range jr.Proportions() {
			k := pointKey{res.Point.K, res.Point.Q, res.Point.P, res.Point.X}
			if !seen[k] {
				seen[k] = true
				pts = append(pts, point{spec, res.Point, res.Value.Successes})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i].pt, pts[j].pt
		return a.K < b.K || a.K == b.K && (a.Q < b.Q || a.Q == b.Q && a.P < b.P)
	})
	var sample []point
	for i := 0; i < len(pts); i += 4 {
		sample = append(sample, pts[i])
	}
	got := make([]int, len(sample))
	err := parallel(Workers, func(g int) error {
		for i := g; i < len(sample); i += Workers {
			p := sample[i]
			sd, err := newStreamDeploy(p.spec.Sensors, p.spec.Pool, p.pt.K, p.pt.Q, p.pt.P, 0)
			if err != nil {
				return err
			}
			d, err := wsn.NewDeployer(sd.config())
			if err != nil {
				return err
			}
			seed := experiment.SweepConfig{Seed: p.spec.Seed}.PointSeed(p.pt)
			trace := fmt.Sprintf("sweepd/cold/K=%d,q=%d,p=%g", p.pt.K, p.pt.Q, p.pt.P)
			for t := range p.spec.Trials {
				var rnd rng.Rand
				rnd.ReseedStream(seed, uint64(t))
				st, err := tracedTrial(r.tr, trace, 0, sd, rnd, func() (wsn.DegreeStats, error) {
					return sd.production(d, &rnd)
				})
				if err != nil {
					return err
				}
				if st.Connected {
					got[i]++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, p := range sample {
		r.check(got[i] == p.successes, "replayed cold point %v: %d successes, the server reported %d",
			p.pt, got[i], p.successes)
	}
	return nil
}

// service is one life of the sweep server: store, manager, loopback HTTP
// server, and the client's connection to it.
type service struct {
	store    *sweepserve.Store
	mgr      *sweepserve.Manager
	srv      *httptest.Server
	client   *sweepserve.Client
	rejected int // submissions refused with 503
}

// openService opens the store on the journal at path (a sweepserve.restore
// span) and starts a manager and server over it.
func openService(path string, tr *tracer, trace string, parent int64) (*service, error) {
	sp := tr.start(trace, "sweepserve.restore", parent)
	st, err := sweepserve.OpenStore(path)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	m := sweepserve.NewManager(sweepserve.Options{Store: st, JobWorkers: 1, TrialWorkers: Workers})
	srv := httptest.NewServer(sweepserve.NewServer(m))
	return &service{store: st, mgr: m, srv: srv, client: &sweepserve.Client{Base: srv.URL, HTTP: srv.Client()}}, nil
}

func (s *service) close() error {
	s.srv.Close()
	s.mgr.Close()
	return s.store.Close()
}

// job runs one job the way a client does: submit (sweepserve.submit), wait
// for the first event (sweepserve.queue) and the terminal one
// (sweepserve.run) on the SSE stream, and fetch the CSV
// (sweepserve.result), all under one sweepserve.job span.
func (s *service) job(ctx context.Context, spec sweepserve.JobSpec, tr *tracer, trace string) (string, []byte, error) {
	job := tr.start(trace, "sweepserve.job", 0)
	sp := tr.start(trace, "sweepserve.submit", job.ID)
	id, err := s.submit(ctx, spec)
	tr.finish(sp)
	if err != nil {
		return "", nil, err
	}
	acked := tr.now()
	first, state, err := s.follow(ctx, id, tr.now)
	if err != nil {
		return id, nil, err
	}
	tr.interval(trace, "sweepserve.queue", job.ID, acked, first)
	tr.interval(trace, "sweepserve.run", job.ID, first, tr.now())
	if state != sweepserve.StateDone {
		return id, nil, fmt.Errorf("job %s ended %s", id, state)
	}
	sp = tr.start(trace, "sweepserve.result", job.ID)
	csv, err := s.client.CSV(ctx, id)
	tr.finish(sp)
	tr.finish(job)
	return id, csv, err
}

// submit posts the spec, retrying while the server refuses it with 503.
func (s *service) submit(ctx context.Context, spec sweepserve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.client.HTTP.Do(req)
		if err != nil {
			return "", err
		}
		var ack sweepserve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			s.rejected++
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return "", ctx.Err()
			}
		case resp.StatusCode != http.StatusAccepted:
			return "", fmt.Errorf("submit: server returned %s", resp.Status)
		case err != nil:
			return "", fmt.Errorf("submit: decoding acknowledgement: %w", err)
		default:
			return ack.ID, nil
		}
	}
}

// follow reads the job's event stream until its terminal event, returning
// when the first event arrived (by now) and the terminal state.
func (s *service) follow(ctx context.Context, id string, now func() int64) (first int64, state string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := s.client.HTTP.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("events of job %s: server returned %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := false
	for sc.Scan() {
		event, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		if !seen {
			first, seen = now(), true
		}
		if event == sweepserve.StateDone || event == sweepserve.StateFailed {
			io.Copy(io.Discard, resp.Body) // the server ends the stream here
			return first, event, nil
		}
	}
	return 0, "", fmt.Errorf("events of job %s ended without a terminal event: %v", id, sc.Err())
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
