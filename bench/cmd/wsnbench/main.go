// Command wsnbench runs the repository's benchmark (package bench).
//
// Run one workload — what BENCHMARK.json's command does — printing a
// report and then, as the last line, the result as JSON:
//
//	wsnbench -workload fig1 -seed 1 -seconds 20 -trace 0
//
// Run all four workloads, each in its own process, keeping each one's
// result.json (and, with -trace 1, spans.jsonl) under -out:
//
//	wsnbench -seed 1 [-trace 1] [-out DIR]
//
// Compare two sets of runs of all workloads, paired by seed, against the
// bounds in BENCHMARK.json:
//
//	wsnbench -compare DIR_A DIR_B
//
// The exit status is 0 when every run was correct (for -compare, when no
// metric got worse), 1 otherwise, and 2 when the benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/secure-wsn/qcomposite/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(bench.Workloads, ", ")+
		" (default: all, each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "how long each workload repeats its round after setting up")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	out := fs.String("out", "", "directory for result.json and spans.jsonl (all workloads: default under $TMPDIR)")
	compare := fs.Bool("compare", false, "compare the runs under two directories: -compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "wsnbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "wsnbench: -compare needs two directories")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		return runOne(ctx, bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Dir: *out, Scale: bench.Full, Log: stdout,
		}, stdout, stderr)
	}
	dir := *out
	if dir == "" {
		dir = filepath.Join(os.TempDir(), fmt.Sprintf("wsnbench-seed%d-%s", *seed, time.Now().Format("20060102-150405")))
	}
	return runAll(ctx, dir, []string{
		"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(*trace),
	}, stdout, stderr)
}

// runOne runs one workload in this process and prints its result as the
// last line of standard output.
func runOne(ctx context.Context, opts bench.Options, stdout, stderr io.Writer) int {
	res, err := bench.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench:", err)
		return 2
	}
	if opts.Dir != "" {
		rec := bench.Record{Workload: opts.Workload, Seed: opts.Seed, Trace: opts.Trace, Seconds: opts.Seconds,
			Info: bench.RunInfo(), Result: res}
		if err := bench.WriteRecord(opts.Dir, rec); err != nil {
			fmt.Fprintln(stderr, "wsnbench:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that each
// one's memory is its own, keeping the results under dir.
func runAll(ctx context.Context, dir string, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "wsnbench: %s; results under %s\n", bench.RunInfo(), dir)
	code := 0
	for _, w := range bench.Workloads {
		cmd := exec.CommandContext(ctx, exe, append([]string{"-workload", w, "-out", filepath.Join(dir, w)}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "wsnbench: workload %s: %v\n", w, err)
			code = max(code, 1)
			if ctx.Err() != nil {
				return 2
			}
		}
	}
	return code
}

func runCompare(dirA, dirB string, stdout, stderr io.Writer) int {
	var bm *bench.Benchmark
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if bm, err = bench.LoadBenchmark(path); err == nil {
			break
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench: reading BENCHMARK.json:", err)
		return 2
	}
	verdicts, err := bench.Compare(dirA, dirB, bm, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench:", err)
		return 2
	}
	for _, v := range verdicts {
		if v.Verdict == "worse" {
			return 1
		}
	}
	return 0
}
