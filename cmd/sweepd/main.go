// Command sweepd is the sweep-as-a-service daemon: a long-running HTTP/JSON
// job server over the experiment engine. Clients POST sweep specs to
// /v1/jobs (connectivity sweeps, cross sweeps, k-connectivity, min-degree,
// design-rule validations, K* validations, attack campaigns), poll
// /v1/jobs/{id}, stream per-point progress from /v1/jobs/{id}/events (SSE),
// and fetch results from /v1/jobs/{id}/result as JSON or CSV.
//
// The -journal file is the server's result store: every completed grid point
// appends one checkpoint-journal line, identical points are deduplicated
// across jobs (seeds derive from point parameters, never from scheduling),
// and a restarted server resumes from the file bit-identical to one that
// never died. SIGINT/SIGTERM drains gracefully: running sweeps cancel,
// points already computed are journaled, in-flight HTTP requests get the
// -drain window to finish.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/secure-wsn/qcomposite/internal/cmdutil"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8322", "listen address")
		journal  = flag.String("journal", "", "result-store journal file (empty: in-memory only, nothing survives restarts)")
		jobs     = flag.Int("jobworkers", 1, "concurrently executing jobs (1 maximizes cross-job cache reuse)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards per job (0 = sequential points; results identical either way)")
		workers  = flag.Int("workers", 0, "trial workers per point (0 = all CPUs)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
	)
	flag.Parse()

	store := sweepserve.NewStore()
	if *journal != "" {
		var err error
		store, err = sweepserve.OpenStore(*journal)
		if err != nil {
			return err
		}
		defer store.Close()
		if st := store.Stats(); st.Restored > 0 {
			fmt.Printf("restored %d completed points from %s\n", st.Restored, *journal)
		}
	}

	manager := sweepserve.NewManager(sweepserve.Options{
		Store:        store,
		JobWorkers:   *jobs,
		PointWorkers: *pWorkers,
		TrialWorkers: *workers,
	})

	// Header and idle timeouts bound what a slow or silent client can hold.
	// There is no write timeout: SSE progress streams stay open for a job's
	// whole run.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           sweepserve.NewServer(manager),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// The drain sequence on SIGINT/SIGTERM: stop the manager first (running
	// sweeps cancel, still-queued jobs fail with "shutting down" — every job
	// reaches a terminal state, so SSE streams emit their final event and
	// close), which lets Shutdown's in-flight-request wait complete within
	// the window instead of timing out on long-poll clients.
	srv.RegisterOnShutdown(func() { go manager.Close() })

	ctx, stop := cmdutil.SignalContext()
	defer stop()

	fmt.Printf("sweepd listening on http://%s\n", *addr)
	if err := cmdutil.Serve(ctx, srv, *drain); err != nil {
		manager.Close()
		return err
	}
	manager.Close()
	fmt.Println("sweepd drained cleanly; journaled points will resume on restart")
	return nil
}
