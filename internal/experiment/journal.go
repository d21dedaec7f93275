package experiment

// The checkpoint journal: every completed grid point of a sweep can be
// serialized to an append-only JSON-lines log as it lands, and a later run
// of the SAME sweep (grid, trials, seed, sweep kind, code version — checked
// via a fingerprint) can load the log, skip the completed points and merge
// cached with fresh results in Points() order. Because per-point seeds
// derive from point parameters and never from scheduling (PointSeed), a
// resumed sweep is bit-identical to an uninterrupted one — a point computed
// yesterday on another worker count equals the point the clean run would
// have computed today.
//
// The format is deliberately forgiving about process death: records are
// written as single atomic lines (one Write call each, so O_APPEND files
// never interleave), duplicate point records are tolerated (first wins —
// they are bit-identical by construction), and a truncated final line (the
// record a kill interrupted mid-write) is ignored rather than rejected.
// Everything else that does not parse is corruption and fails loudly.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/stats"
)

// CodeVersion tags the simulation-semantics generation of this build. It is
// folded into every journal fingerprint, so a journal written by a build
// whose trial semantics differ (different sampling order, different
// estimators) is rejected on resume instead of silently merging
// incompatible results. Bump it whenever a change would alter the results a
// fixed (grid, config, seed) sweep produces.
const CodeVersion = "qcomposite-sweep-v1"

// journalRecord is one JSON line of a checkpoint journal: exactly one of
// the fields is set.
type journalRecord struct {
	Header *journalHeader `json:"header,omitempty"`
	Point  *journalPoint  `json:"point,omitempty"`
}

// journalHeader opens a journal (and re-opens it on every resumed append):
// the fingerprint binds all subsequent point records to one sweep identity.
// Spec is the human-readable preimage, stored for debuggability — the
// fingerprint alone decides compatibility. The structured fields repeat the
// spec's components so external orchestrators (the sweep server's shared
// result store) can index sections without parsing the preimage string;
// journals written before these fields existed simply lack them.
type journalHeader struct {
	Fingerprint string `json:"fingerprint"`
	Spec        string `json:"spec"`
	Code        string `json:"code,omitempty"`
	Kind        string `json:"kind,omitempty"`
	Label       string `json:"label,omitempty"`
	Trials      int    `json:"trials,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
}

// journalPoint is one completed grid point: its parameters (never its grid
// index — resume re-derives indices from the current grid), the
// parameter-derived seed it ran under (a cross-check against the
// fingerprint), and the sweep-variant-specific result payload.
type journalPoint struct {
	K     int             `json:"k"`
	Q     int             `json:"q"`
	P     float64         `json:"p"`
	X     float64         `json:"x"`
	Seed  uint64          `json:"seed"`
	Value json.RawMessage `json:"value"`
}

// pointKey identifies a grid point by its parameters, the same identity
// PointSeed derives seeds from.
type pointKey struct {
	K, Q int
	P, X float64
}

func keyOf(pt GridPoint) pointKey {
	return pointKey{K: pt.K, Q: pt.Q, P: pt.P, X: pt.X}
}

// journalSpec renders the canonical fingerprint preimage of one sweep: the
// code version, the sweep variant (kind), the caller's label, the trial
// budget, the base seed, and every grid axis value exactly (float bits, not
// decimal renderings). Worker counts are deliberately absent — results are
// bit-identical across Workers/PointWorkers, so a journal written under one
// parallelism setting resumes under any other.
func (c SweepConfig) journalSpec(kind string, grid Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "code=%s kind=%s label=%q trials=%d seed=%d", CodeVersion, kind, c.JournalLabel, c.Trials, c.Seed)
	ks, qs, ps, xs := grid.axes()
	fmt.Fprintf(&b, " ks=%v qs=%v ps=[", ks, qs)
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(p))
	}
	b.WriteString("] xs=[")
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(x))
	}
	b.WriteString("]")
	return b.String()
}

// journalFingerprint hashes the spec preimage into the identity every
// journal record set is bound to.
func (c SweepConfig) journalFingerprint(kind string, grid Grid) (fingerprint, spec string) {
	spec = c.journalSpec(kind, grid)
	sum := sha256.Sum256([]byte(spec))
	return fmt.Sprintf("%x", sum[:]), spec
}

// journalWriter appends records to the sweep's checkpoint writer. It is
// shared by every shard of a sharded sweep: the mutex serializes writes and
// each record goes out as ONE Write call, so an O_APPEND file receives
// whole lines even under concurrent checkpointing.
type journalWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (jw *journalWriter) writeRecord(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("experiment: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err := jw.w.Write(data); err != nil {
		return fmt.Errorf("experiment: writing checkpoint journal: %w", err)
	}
	return nil
}

// writePoint checkpoints one freshly completed point.
func (jw *journalWriter) writePoint(pt GridPoint, seed uint64, value json.RawMessage) error {
	return jw.writeRecord(journalRecord{Point: &journalPoint{
		K: pt.K, Q: pt.Q, P: pt.P, X: pt.X, Seed: seed, Value: value,
	}})
}

// loadJournal parses a journal stream written by previous runs. A journal is
// a sequence of SECTIONS, each a header followed by its point records:
// commands that run several sweeps in one invocation (e.g. a disk-model and
// an on/off-model cross-sweep) checkpoint them all to one file, and each
// sweep loads only the sections whose fingerprint matches — other sweeps'
// sections are skipped, not rejected. A journal with records but no matching
// section belongs to a different sweep and IS rejected, with both specs in
// the error. Duplicate points keep the first record (they are bit-identical
// by construction). A final line that does not parse is treated as the write
// a kill interrupted and skipped; malformed records anywhere else are
// corruption.
func loadJournal(r io.Reader, fingerprint, spec, kind, label string) (map[pointKey]journalPoint, error) {
	cached := make(map[pointKey]journalPoint)
	br := bufio.NewReader(r)
	var (
		line       = 0
		matched    = false // some section matched our fingerprint
		inMatching = false // the CURRENT section matches
		sawHeader  = false
		firstOther = "" // spec of the first non-matching section, for the error
	)
	for {
		data, readErr := br.ReadBytes('\n')
		atEOF := readErr == io.EOF
		if readErr != nil && !atEOF {
			return nil, fmt.Errorf("experiment: reading resume journal: %w", readErr)
		}
		trimmed := bytes.TrimSpace(data)
		if len(trimmed) > 0 {
			line++
			var rec journalRecord
			if err := json.Unmarshal(trimmed, &rec); err != nil {
				if atEOF {
					// The record a kill cut off mid-write; the point it held
					// is simply recomputed.
					break
				}
				return nil, fmt.Errorf("experiment: resume journal line %d is corrupt: %w", line, err)
			}
			switch {
			case rec.Header != nil && rec.Point != nil:
				return nil, fmt.Errorf("experiment: resume journal line %d holds both a header and a point", line)
			case rec.Header != nil:
				sawHeader = true
				inMatching = rec.Header.Fingerprint == fingerprint
				if inMatching {
					matched = true
				} else {
					// A foreign section under OUR label but a different sweep
					// kind is a reused label, not a different sweep: the
					// caller changed what the sweep measures while keeping the
					// label, and silently skipping the section would quietly
					// recompute everything the label was meant to protect.
					// Fail loudly instead. (Sections written before headers
					// carried structured fields have Kind == "" and keep the
					// old skip behavior.)
					if rec.Header.Kind != "" && rec.Header.Label == label && rec.Header.Kind != kind {
						return nil, fmt.Errorf(
							"experiment: resume journal label %q was written by a %q sweep but this sweep's kind is %q: a reused label must keep its sweep kind (journal spec: %s)",
							label, rec.Header.Kind, kind, rec.Header.Spec)
					}
					if firstOther == "" {
						firstOther = rec.Header.Spec
					}
				}
			case rec.Point != nil:
				if !sawHeader {
					return nil, fmt.Errorf("experiment: resume journal line %d: point record before any header", line)
				}
				if inMatching {
					key := pointKey{K: rec.Point.K, Q: rec.Point.Q, P: rec.Point.P, X: rec.Point.X}
					if _, dup := cached[key]; !dup {
						cached[key] = *rec.Point
					}
				}
			default:
				return nil, fmt.Errorf("experiment: resume journal line %d holds neither header nor point", line)
			}
		}
		if atEOF {
			break
		}
	}
	if line == 0 {
		// An empty stream (e.g. a just-created checkpoint file) resumes
		// nothing — not an error, the sweep simply runs in full.
		return cached, nil
	}
	if !sawHeader {
		return nil, fmt.Errorf("experiment: resume journal has no header record")
	}
	if !matched {
		return nil, fmt.Errorf(
			"experiment: resume journal belongs to a different sweep:\n  journal spec: %s\n  current spec: %s",
			firstOther, spec)
	}
	return cached, nil
}

// journalSetup prepares the journal side of one sweep run: it loads and
// verifies cfg.Resume (when set) into a cache of completed points, and
// opens cfg.Checkpoint (when set) by appending a fresh header. Either side
// may be nil independently.
func (c SweepConfig) journalSetup(kind string, grid Grid) (*journalWriter, map[pointKey]journalPoint, error) {
	if c.Checkpoint == nil && c.Resume == nil {
		return nil, nil, nil
	}
	fingerprint, spec := c.journalFingerprint(kind, grid)
	var cached map[pointKey]journalPoint
	if c.Resume != nil {
		var err error
		cached, err = loadJournal(c.Resume, fingerprint, spec, kind, c.JournalLabel)
		if err != nil {
			return nil, nil, err
		}
	}
	var jw *journalWriter
	if c.Checkpoint != nil {
		jw = &journalWriter{w: c.Checkpoint}
		if err := jw.writeRecord(journalRecord{Header: &journalHeader{
			Fingerprint: fingerprint,
			Spec:        spec,
			Code:        CodeVersion,
			Kind:        kind,
			Label:       c.JournalLabel,
			Trials:      c.Trials,
			Seed:        c.Seed,
		}}); err != nil {
			return nil, nil, err
		}
	}
	return jw, cached, nil
}

// pointCodec serializes one sweep variant's per-point result for the
// journal. kind names the variant inside the fingerprint; encode/decode
// must round-trip every result field bit-identically (decode receives the
// point so results can re-embed fresh GridPoint metadata, keeping Index
// consistent with the current grid).
type pointCodec[R any] struct {
	kind   string
	encode func(R) (json.RawMessage, error)
	decode func(pt GridPoint, raw json.RawMessage) (R, error)
}

// proportionCodec journals ProportionResult values: the success/trial
// counts are integers, so the round trip is trivially exact.
func proportionCodec() pointCodec[ProportionResult] {
	return pointCodec[ProportionResult]{
		kind: KindProportion,
		encode: func(r ProportionResult) (json.RawMessage, error) {
			return json.Marshal(r.Value)
		},
		decode: func(pt GridPoint, raw json.RawMessage) (ProportionResult, error) {
			var v stats.Proportion
			if err := json.Unmarshal(raw, &v); err != nil {
				return ProportionResult{}, err
			}
			return ProportionResult{Point: pt, Value: v}, nil
		},
	}
}

// meanCodec journals MeanResult values through stats.Summary's exact
// accumulator serialization.
func meanCodec() pointCodec[MeanResult] {
	return pointCodec[MeanResult]{
		kind: KindMean,
		encode: func(r MeanResult) (json.RawMessage, error) {
			return json.Marshal(r.Value)
		},
		decode: func(pt GridPoint, raw json.RawMessage) (MeanResult, error) {
			v := &stats.Summary{}
			if err := json.Unmarshal(raw, v); err != nil {
				return MeanResult{}, err
			}
			return MeanResult{Point: pt, Value: v}, nil
		},
	}
}

// meanVecCodec journals MeanVecResult values. dims is part of the kind (and
// hence the fingerprint): a meanvec journal only resumes a sweep measuring
// the same number of components.
func meanVecCodec(dims int) pointCodec[MeanVecResult] {
	return pointCodec[MeanVecResult]{
		kind: KindMeanVec(dims),
		encode: func(r MeanVecResult) (json.RawMessage, error) {
			return json.Marshal(r.Values)
		},
		decode: func(pt GridPoint, raw json.RawMessage) (MeanVecResult, error) {
			var vs []*stats.Summary
			if err := json.Unmarshal(raw, &vs); err != nil {
				return MeanVecResult{}, err
			}
			if len(vs) != dims {
				return MeanVecResult{}, fmt.Errorf("journaled point has %d components, want %d", len(vs), dims)
			}
			return MeanVecResult{Point: pt, Values: vs}, nil
		},
	}
}
