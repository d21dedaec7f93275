package experiment

// The exported journal surface: everything an external orchestrator needs to
// treat checkpoint journals as a content-addressed result cache without
// knowing the line format. The sweep server (internal/sweepserve) is the
// primary consumer — it fingerprints sweeps with JournalFingerprint to
// coalesce duplicate jobs, synthesizes Resume streams from cached points
// with MarshalJournalHeader/MarshalJournalPoint, and ingests freshly
// checkpointed points by feeding each journal line through
// ParseJournalRecord. The types mirror the internal record structs exactly,
// so a stream assembled from Marshal* calls is accepted by SweepConfig.Resume
// and a line written by SweepConfig.Checkpoint parses back loss-free.

import (
	"encoding/json"
	"fmt"
)

// Sweep kind tags as they appear in journal fingerprints and section
// headers: the codec identity of each sweep family. SweepProportion and
// everything built on it (CrossSweep, SweepKConnectivity, SweepConnectivity,
// SweepMinDegree, the kstar/design validations) journal as KindProportion;
// SweepMean as KindMean; SweepMeanVec and SweepCampaign as
// KindMeanVec(dims).
const (
	KindProportion = "proportion"
	KindMean       = "mean"
)

// KindMeanVec returns the journal kind of a dims-component SweepMeanVec (the
// width folds into the kind, so a journal only resumes a sweep measuring the
// same number of components).
func KindMeanVec(dims int) string {
	return fmt.Sprintf("meanvec/%d", dims)
}

// JournalFingerprint returns the fingerprint and its human-readable spec
// preimage binding a journal section to one sweep identity: code version,
// kind, JournalLabel, trial budget, base seed, and the exact grid axis
// values. Worker counts are excluded by design — results are bit-identical
// across parallelism settings. Two sweeps share results exactly when their
// fingerprints match, which makes the fingerprint the dedupe key for
// job-level coalescing.
func (c SweepConfig) JournalFingerprint(kind string, grid Grid) (fingerprint, spec string) {
	return c.journalFingerprint(kind, grid)
}

// JournalHeaderInfo is the exported view of one journal section header.
type JournalHeaderInfo struct {
	// Fingerprint binds the section's points to one sweep identity; Spec is
	// its human-readable preimage.
	Fingerprint string
	Spec        string
	// Code, Kind, Label, Trials and Seed repeat the spec's components
	// structurally. Sections written before headers carried these fields
	// leave them zero.
	Code   string
	Kind   string
	Label  string
	Trials int
	Seed   uint64
}

// JournalPointInfo is the exported view of one journaled grid point: its
// parameters (grid indices are re-derived on resume), the parameter-derived
// seed it ran under, and the codec payload.
type JournalPointInfo struct {
	K, Q  int
	P, X  float64
	Seed  uint64
	Value json.RawMessage
}

// ParseJournalRecord parses one journal line into a header or a point record
// (exactly one of the returns is non-nil on success; a line holding both is
// an error, as is one holding neither). Callers scanning whole
// files own the framing policy — in particular, tolerating the truncated
// final line a kill may leave behind.
func ParseJournalRecord(line []byte) (*JournalHeaderInfo, *JournalPointInfo, error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, nil, fmt.Errorf("experiment: journal record does not parse: %w", err)
	}
	switch {
	case rec.Header != nil && rec.Point != nil:
		return nil, nil, fmt.Errorf("experiment: journal record holds both a header and a point")
	case rec.Header != nil:
		return &JournalHeaderInfo{
			Fingerprint: rec.Header.Fingerprint,
			Spec:        rec.Header.Spec,
			Code:        rec.Header.Code,
			Kind:        rec.Header.Kind,
			Label:       rec.Header.Label,
			Trials:      rec.Header.Trials,
			Seed:        rec.Header.Seed,
		}, nil, nil
	case rec.Point != nil:
		return nil, &JournalPointInfo{
			K: rec.Point.K, Q: rec.Point.Q, P: rec.Point.P, X: rec.Point.X,
			Seed: rec.Point.Seed, Value: rec.Point.Value,
		}, nil
	}
	return nil, nil, fmt.Errorf("experiment: journal record holds neither header nor point")
}

// MarshalJournalHeader renders a section header as one journal line
// (trailing newline included), byte-compatible with the lines
// SweepConfig.Checkpoint writes.
func MarshalJournalHeader(h JournalHeaderInfo) ([]byte, error) {
	data, err := json.Marshal(journalRecord{Header: &journalHeader{
		Fingerprint: h.Fingerprint,
		Spec:        h.Spec,
		Code:        h.Code,
		Kind:        h.Kind,
		Label:       h.Label,
		Trials:      h.Trials,
		Seed:        h.Seed,
	}})
	if err != nil {
		return nil, fmt.Errorf("experiment: encoding journal header: %w", err)
	}
	return append(data, '\n'), nil
}

// MarshalJournalPoint renders a point record as one journal line (trailing
// newline included), byte-compatible with the lines SweepConfig.Checkpoint
// writes.
func MarshalJournalPoint(p JournalPointInfo) ([]byte, error) {
	data, err := json.Marshal(journalRecord{Point: &journalPoint{
		K: p.K, Q: p.Q, P: p.P, X: p.X, Seed: p.Seed, Value: p.Value,
	}})
	if err != nil {
		return nil, fmt.Errorf("experiment: encoding journal point: %w", err)
	}
	return append(data, '\n'), nil
}
