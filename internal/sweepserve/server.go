package sweepserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Server is the HTTP face of a Manager. Routes (all JSON unless noted):
//
//	POST /v1/jobs             submit a JobSpec → SubmitResponse (400 SpecError on bad specs; 413 SpecError naming "body" past MaxSpecBytes; 503 + Retry-After when the queue is full or the server is draining)
//	GET  /v1/jobs/{id}        job status (404 for an ID never submitted or evicted)
//	GET  /v1/jobs/{id}/result terminal result (JSON; ?format=csv for text/csv)
//	GET  /v1/jobs/{id}/events SSE: one progress event per change, then a terminal event
//	GET  /v1/stats            server + store statistics
//	GET  /v1/healthz          liveness
type Server struct {
	manager *Manager
	mux     *http.ServeMux
}

// MaxSpecBytes bounds a submitted job spec's request body. Real specs are a
// few hundred bytes; the bound keeps one request from holding unbounded
// memory while it is decoded.
const MaxSpecBytes = 1 << 20

// SubmitResponse acknowledges a job submission.
type SubmitResponse struct {
	// ID is the sweep fingerprint of the spec: the same for every
	// submission of the spec, across restarts.
	ID    string `json:"id"`
	State string `json:"state"`
	// Coalesced reports that the spec's job was already queued, running or
	// done, and the response describes that job instead of a new run.
	Coalesced bool `json:"coalesced"`
	// Points is the job's grid size.
	Points int `json:"points"`
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Store StoreStats `json:"store"`
	// Jobs is the size of the job table: queued and running jobs plus at
	// most MaxTerminalJobs done or failed ones.
	Jobs      int `json:"jobs"`
	Coalesced int `json:"coalesced"`
}

// NewServer wraps a manager in its HTTP routes.
func NewServer(m *Manager) *Server {
	s := &Server{manager: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError renders validation failures as structured 400s naming the
// offending spec field, and everything else as a bare error payload.
func writeError(w http.ResponseWriter, code int, err error) {
	var spec *SpecError
	if errors.As(err, &spec) {
		writeJSON(w, http.StatusBadRequest, spec)
		return
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeSpec decodes a submitted job spec from a body bounded by
// http.MaxBytesReader, rejecting unknown fields. Failures are SpecErrors
// naming "body", with the status to answer: 413 past the bound, else 400.
func decodeSpec(body io.Reader) (JobSpec, int, *SpecError) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return spec, http.StatusRequestEntityTooLarge,
				&SpecError{Field: "body", Msg: fmt.Sprintf("job spec exceeds %d bytes", tooLarge.Limit)}
		}
		return spec, http.StatusBadRequest, &SpecError{Field: "body", Msg: fmt.Sprintf("decoding job spec: %v", err)}
	}
	return spec, 0, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, code, specErr := decodeSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if specErr != nil {
		writeJSON(w, code, specErr)
		return
	}
	job, coalesced, err := s.manager.Submit(spec)
	if err != nil {
		// A saturated queue or a shutting-down server is our capacity, not
		// the client's spec: 503 with a retry hint instead of 400.
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := job.Status()
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:        st.ID,
		State:     st.State,
		Coalesced: coalesced,
		Points:    st.Progress.Total,
	})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.manager.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	result, err := job.Result()
	if err != nil {
		code := http.StatusConflict // not terminal yet
		if job.Status().State == StateFailed {
			code = http.StatusInternalServerError
		}
		writeError(w, code, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		csv, err := job.renderedCSV(result)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("Content-Length", strconv.Itoa(len(csv)))
		w.Write(csv) // a failed write leaves no one to tell: the status is out
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// handleEvents streams job progress as server-sent events: an event per
// status change (coalesced — a burst of point completions may collapse into
// one event) and a final event named "done" or "failed", then the stream
// closes. Clients reconnecting mid-job just get the current state first.
// Progress events are flushed as they happen; the terminal event is not,
// so a terminal job's stream is one response with a Content-Length.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		// Grab the change channel BEFORE snapshotting, so a change landing
		// between snapshot and wait wakes the loop instead of being lost.
		change, _ := job.await()
		st := job.Status()
		terminal := st.State == StateDone || st.State == StateFailed
		event := "progress"
		if terminal {
			event = st.State
		}
		payload, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
		if terminal {
			return
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-change:
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServerStats{
		Store:     s.manager.Store().Stats(),
		Jobs:      s.manager.Jobs(),
		Coalesced: s.manager.Coalesced(),
	})
}
