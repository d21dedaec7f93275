package sweepserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/secure-wsn/qcomposite/internal/experiment"
)

// Client is a typed client for a sweep server. Zero value is unusable; fill
// Base (e.g. "http://127.0.0.1:8080"). HTTP defaults to
// http.DefaultClient.
type Client struct {
	Base string
	HTTP *http.Client
	// Poll is the Wait polling interval; zero means 50ms.
	Poll time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// decodeError maps non-2xx responses back to errors — structured 400s and
// 413s surface as *SpecError, so callers (and tests) can inspect the
// offending field across the wire.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusRequestEntityTooLarge {
		var spec SpecError
		if err := json.Unmarshal(body, &spec); err == nil && spec.Field != "" {
			return &spec
		}
	}
	var generic struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &generic); err == nil && generic.Error != "" {
		return fmt.Errorf("sweepserve: server returned %s: %s", resp.Status, generic.Error)
	}
	return fmt.Errorf("sweepserve: server returned %s", resp.Status)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job spec and returns the server's acknowledgement.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (SubmitResponse, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return SubmitResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return SubmitResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return SubmitResponse{}, decodeError(resp)
	}
	var ack SubmitResponse
	return ack, json.NewDecoder(resp.Body).Decode(&ack)
}

// Status polls a job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	return st, c.get(ctx, "/v1/jobs/"+id, &st)
}

// Wait polls until the job reaches a terminal state, then returns its final
// status. A failed job is NOT an error here — inspect Status.State; Wait
// errors mean the waiting itself broke (context, transport).
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Result fetches a finished job's result.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	var jr JobResult
	if err := c.get(ctx, "/v1/jobs/"+id+"/result", &jr); err != nil {
		return nil, err
	}
	return &jr, nil
}

// CSV fetches a finished job's result rendered as CSV.
func (c *Client) CSV(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/result?format=csv", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Stats fetches server statistics.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var st ServerStats
	return st, c.get(ctx, "/v1/stats", &st)
}

// RunProportion is the whole client arc for proportion-kind jobs: submit,
// wait, fetch, and rehydrate engine-level sweep results — the drop-in
// replacement for a local experiment sweep call that remote-mode commands
// (designer -server, kstar -server) build on.
func (c *Client) RunProportion(ctx context.Context, spec JobSpec) ([]experiment.ProportionResult, error) {
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	st, err := c.Wait(ctx, ack.ID)
	if err != nil {
		return nil, err
	}
	if st.State == StateFailed {
		return nil, fmt.Errorf("sweepserve: job %s failed: %s", st.ID, st.Error)
	}
	jr, err := c.Result(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	return jr.Proportions(), nil
}
