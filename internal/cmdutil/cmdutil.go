// Package cmdutil wires the sweep runtime's fault-tolerance features into
// the command-line experiments: -checkpoint/-resume journal flags shared by
// every sweep a command runs, and a signal-aware context so an interrupted
// run (Ctrl-C, SIGTERM) drains its shards, flushes the journal, and prints
// how to pick up where it left off. It also holds the comma-list flag parser
// the commands share.
package cmdutil

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/secure-wsn/qcomposite/internal/experiment"
)

// Journal carries a command's -checkpoint/-resume flag state and, after
// Open, the loaded resume bytes and the open checkpoint file. One Journal
// serves every sweep the command runs: each sweep gets its own section in
// the file (its own header + points, under its own label), and on resume
// each sweep reads only its own sections.
type Journal struct {
	checkpointPath string
	resumePath     string

	resumeData []byte
	file       *os.File
}

// RegisterJournal registers -checkpoint and -resume on the default flag set.
// Call before flag.Parse, then Open after it.
func RegisterJournal() *Journal {
	j := &Journal{}
	flag.StringVar(&j.checkpointPath, "checkpoint", "",
		"append each completed grid point to this journal file; an interrupted run resumes from it")
	flag.StringVar(&j.resumePath, "resume", "",
		"resume completed points from this journal (default: the -checkpoint file when it already exists)")
	return j
}

// Open loads the resume journal and opens the checkpoint file for append.
// When only -checkpoint is given and the file already exists, it doubles as
// the resume journal — the natural "re-run the same command line after a
// kill" workflow. The resume bytes are read fully into memory BEFORE the
// checkpoint file is opened for append, so checkpointing to the file being
// resumed from is safe (and is the intended usage).
func (j *Journal) Open() error {
	resumePath := j.resumePath
	if resumePath == "" && j.checkpointPath != "" {
		if st, err := os.Stat(j.checkpointPath); err == nil && st.Size() > 0 {
			resumePath = j.checkpointPath
		}
	}
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return fmt.Errorf("reading resume journal: %w", err)
		}
		j.resumeData = data
	}
	if j.checkpointPath != "" {
		f, err := os.OpenFile(j.checkpointPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening checkpoint journal: %w", err)
		}
		j.file = f
	}
	return nil
}

// Apply returns cfg wired to this journal for one sweep: label names the
// sweep's section (it folds into the journal fingerprint, so it must capture
// everything the build closure bakes in that the grid does not — sensor
// count, pool size, channel family, mode). Each Apply hands the sweep its
// own reader over the loaded resume bytes, so several sweeps can resume from
// one file.
func (j *Journal) Apply(cfg experiment.SweepConfig, label string) experiment.SweepConfig {
	cfg.JournalLabel = label
	if j.resumeData != nil {
		cfg.Resume = bytes.NewReader(j.resumeData)
	}
	if j.file != nil {
		cfg.Checkpoint = j.file
	}
	return cfg
}

// Close releases the checkpoint file.
func (j *Journal) Close() error {
	if j.file == nil {
		return nil
	}
	err := j.file.Close()
	j.file = nil
	return err
}

// Hint decorates a failed sweep's error with the resume instruction when the
// completed points were checkpointed — the message an interrupted user needs.
func (j *Journal) Hint(err error) error {
	if err == nil || j.checkpointPath == "" {
		return err
	}
	return fmt.Errorf("%w\ncompleted points are checkpointed; re-run with -checkpoint %s to resume",
		err, j.checkpointPath)
}

// ParseList parses the comma-separated value s of the flag -name into ints
// or floats. It trims each part and skips empty ones, so "2," lists just 2;
// a list with no values is an error, and every error names the flag.
func ParseList[T int | float64](name, s string) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(part)
		case *float64:
			*p, err = strconv.ParseFloat(part, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("parse -%s %q: %w", name, part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s %q lists no values", name, s)
	}
	return out, nil
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM. On the first
// signal the sweep's shards drain, freshly completed points flush to the
// journal, and the command exits through its normal error path; a second
// signal kills the process the usual way (the journal tolerates the
// truncated final line that may leave behind).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// Serve runs an http.Server until ctx is cancelled (typically by
// SignalContext), then drains it gracefully: in-flight requests get
// drainTimeout to finish before the listener is torn down. The server's own
// BaseContext is NOT cancelled during the drain, so long-poll/SSE handlers
// observing the request context wind down on their own schedule within the
// timeout. Returns nil on a clean drain; http.ErrServerClosed is absorbed.
func Serve(ctx context.Context, srv *http.Server, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested (port in use, …).
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain deadline exceeded: hard-close the stragglers so the process
		// can exit; completed work is already journaled.
		srv.Close()
		return fmt.Errorf("draining server: %w", err)
	}
	return <-errc
}
