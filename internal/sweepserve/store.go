package sweepserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/experiment"
)

// pointKey is the identity of one computed grid point across jobs: the
// sweep-identity fields of its journal section (kind, label, trials) plus the
// point's parameters and its parameter-derived seed. Worker counts and grid
// shape are deliberately absent — a point computed inside a 100-point grid is
// byte-identical to the same point computed alone, so overlapping grids share
// cache entries. The seed already folds in the sweep's base seed
// (experiment.SweepConfig.PointSeed), so jobs with different base seeds never
// collide.
type pointKey struct {
	kind   string
	label  string
	trials int
	seed   uint64
	k, q   int
	pbits  uint64
	xbits  uint64
}

func keyFor(kind, label string, trials int, p experiment.JournalPointInfo) pointKey {
	return pointKey{
		kind:   kind,
		label:  label,
		trials: trials,
		seed:   p.Seed,
		k:      p.K,
		q:      p.Q,
		pbits:  math.Float64bits(p.P),
		xbits:  math.Float64bits(p.X),
	}
}

// StoreStats is a snapshot of the store's cache accounting.
type StoreStats struct {
	// Points is the number of distinct cached point results.
	Points int `json:"points"`
	// Hits and Misses count per-point cache lookups across all jobs: a hit
	// is a point resolved from the store, a miss a point that had to run.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Restored is how many points were loaded from the journal file at
	// open, i.e. survived a server restart.
	Restored int `json:"restored"`
}

// Store is the shared, journal-backed result cache. Every completed grid
// point — whatever job computed it — lands here keyed by pointKey; jobs
// resolve their cached points into a synthesized experiment resume stream
// before running, so only genuinely new points execute. When opened on a
// file, the PR-8 checkpoint-journal format doubles as the persistence layer:
// each fresh point appends one journal line, and reopening the file after a
// restart restores every completed point — the journal file IS the cache.
type Store struct {
	mu     sync.Mutex
	points map[pointKey]json.RawMessage
	file   *os.File // nil for a memory-only store
	// fileFP is the fingerprint of the section header most recently written
	// to the file. Concurrent jobs share the one file, so their sections
	// interleave; a point line is only appended when the file's current
	// section is its own (storeWriter re-emits the job's header otherwise),
	// which keeps restore()'s header-then-points attribution correct.
	fileFP string

	hits, misses, restored int
}

// NewStore returns a memory-only store: dedupe across jobs within one server
// lifetime, nothing persisted.
func NewStore() *Store {
	return &Store{points: map[pointKey]json.RawMessage{}}
}

// OpenStore opens (creating if needed) a journal-file-backed store. Existing
// sections are scanned for completed points: headers establish the section's
// (kind, label, trials) context, point lines under a known header are
// restored, and sections from journals written before headers carried
// structured fields are skipped (their identity cannot be established). A
// truncated final line — the signature of a kill mid-append — is tolerated
// AND cut off the file before appends resume: left in place, the next
// checkpoint would concatenate a complete record onto the torn partial line
// and the restart after that would read a malformed record mid-file. For
// the same reason a whole final record that lost only its newline gets one.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepserve: opening result store: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweepserve: reading result store: %w", err)
	}
	s := &Store{points: map[pointKey]json.RawMessage{}, file: f}
	keep, err := s.restore(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	if keep < len(data) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweepserve: truncating torn final record: %w", err)
		}
	} else if keep > 0 && data[keep-1] != '\n' {
		// A kill between a record and its newline leaves a whole final
		// record; end its line so the next append starts a line of its own.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweepserve: terminating final record: %w", err)
		}
	}
	s.restored = len(s.points)
	return s, nil
}

// restore scans the journal bytes into the point map and returns the length
// of the valid prefix. A malformed final line — the append a kill cut off —
// is excluded from the prefix so OpenStore can truncate it away; a malformed
// record followed by more content is corruption and fails loudly.
func (s *Store) restore(data []byte) (int, error) {
	var kind, label string
	trials := 0
	known := false
	for off := 0; off < len(data); {
		next := len(data)
		raw := data[off:]
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
			next = off + i + 1
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			off = next
			continue
		}
		h, p, err := experiment.ParseJournalRecord(line)
		if err != nil {
			if len(bytes.TrimSpace(data[next:])) > 0 {
				return 0, fmt.Errorf("sweepserve: result store corrupt (malformed record mid-file): %w", err)
			}
			return off, nil
		}
		switch {
		case h != nil:
			kind, label, trials = h.Kind, h.Label, h.Trials
			known = h.Kind != "" // pre-structured-header sections are unidentifiable
			s.fileFP = h.Fingerprint
		case p != nil && known:
			key := keyFor(kind, label, trials, *p)
			if _, dup := s.points[key]; !dup {
				s.points[key] = append(json.RawMessage(nil), p.Value...)
			}
		}
		off = next
	}
	return len(data), nil
}

// Close releases the backing file, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

// Stats snapshots the cache accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Points: len(s.points), Hits: s.hits, Misses: s.misses, Restored: s.restored}
}

// sectionHeader renders one job's journal section header — shared by
// resumeFor (synthesized resume streams) and checkpointer (the header written
// before a run of the job's point lines).
func sectionHeader(plan *jobPlan) ([]byte, error) {
	return experiment.MarshalJournalHeader(experiment.JournalHeaderInfo{
		Fingerprint: plan.id,
		Spec:        plan.preimage,
		Code:        experiment.CodeVersion,
		Kind:        plan.kind,
		Label:       plan.label,
		Trials:      plan.trials,
		Seed:        plan.seed,
	})
}

// resumeFor synthesizes the experiment resume stream of one job: a section
// header carrying the job's own fingerprint followed by every cached point
// that lies on the job's grid, rendered through the exported journal
// marshallers so SweepConfig.Resume accepts it verbatim. Returns the stream
// and the number of cache hits (misses — points the job must compute — are
// grid.Len() − hits; both are tallied into the store stats).
func (s *Store) resumeFor(plan *jobPlan) (io.Reader, int, error) {
	header, err := sectionHeader(plan)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	buf.Write(header)

	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := plan.config(0, 0)
	hits := 0
	for _, pt := range plan.grid.Points() {
		info := experiment.JournalPointInfo{
			K: pt.K, Q: pt.Q, P: pt.P, X: pt.X,
			Seed: cfg.PointSeed(pt),
		}
		value, ok := s.points[keyFor(plan.kind, plan.label, plan.trials, info)]
		if !ok {
			s.misses++
			continue
		}
		s.hits++
		hits++
		info.Value = value
		line, err := experiment.MarshalJournalPoint(info)
		if err != nil {
			return nil, 0, err
		}
		buf.Write(line)
	}
	return &buf, hits, nil
}

// checkpointer returns the job's Checkpoint sink: every point line the sweep
// writes is ingested into the in-memory map (so concurrent and later jobs see
// the point immediately) and appended to the journal file when the store is
// file-backed (so the point survives restarts). The journalWriter contract —
// one complete record per Write call — is what makes live ingestion
// line-by-line safe.
func (s *Store) checkpointer(plan *jobPlan) (io.Writer, error) {
	header, err := sectionHeader(plan)
	if err != nil {
		return nil, err
	}
	return &storeWriter{store: s, plan: plan, header: header}, nil
}

type storeWriter struct {
	store *Store
	plan  *jobPlan
	// header opens this job's journal section. The sweep's own header line
	// is not appended; this one is, before a point line whenever the file's
	// tail is not this job's section. So every contiguous run of point lines
	// sits under its own header even when concurrent jobs interleave
	// appends, and a run that computes no point appends nothing.
	header []byte
}

func (w *storeWriter) Write(line []byte) (int, error) {
	s := w.store
	s.mu.Lock()
	defer s.mu.Unlock()
	_, p, err := experiment.ParseJournalRecord(bytes.TrimSpace(line))
	if err != nil {
		return 0, fmt.Errorf("sweepserve: checkpoint line does not parse: %w", err)
	}
	if p == nil {
		return len(line), nil
	}
	if s.file != nil {
		if s.fileFP != w.plan.id {
			if _, err := s.file.Write(w.header); err != nil {
				return 0, fmt.Errorf("sweepserve: appending to result store: %w", err)
			}
			s.fileFP = w.plan.id
		}
		if _, err := s.file.Write(line); err != nil {
			return 0, fmt.Errorf("sweepserve: appending to result store: %w", err)
		}
	}
	key := keyFor(w.plan.kind, w.plan.label, w.plan.trials, *p)
	if _, dup := s.points[key]; !dup {
		s.points[key] = append(json.RawMessage(nil), p.Value...)
	}
	return len(line), nil
}
