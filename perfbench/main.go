// Command perfbench is the balsabm repository benchmark. It measures
// three workloads end to end — the paper's Table 3 flow, a
// simulation-heavy SSEM run and the daemon's Balsa edit loop — checks
// every output against a reference that does not come from the flow
// under test, and, in a separate traced run, splits an op's time by
// pipeline layer.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload table3|ssem-sim|balsa-edit --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. The exit
// code is non-zero when an output check fails or the run cannot
// produce its metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// processStart anchors the first set-up measurement at process start.
var processStart = time.Now()

const (
	// minOps is the least number of ops a timed run completes
	// successfully, so that latency_p90_ms has minBeyond samples beyond
	// it. A run that has not reached it when its seconds are up keeps
	// going until it has, or until giveUpOps ops have been attempted.
	minOps    = 100
	giveUpOps = 4 * minOps
	// setupRepeats is how many times a run sets its workload up; the
	// reported setup_s is their median. The last set-up is the one
	// measured.
	setupRepeats = 5
	// workers is the benchmark's concurrency: flow workers and daemon
	// clients. The benchmark host has two cores.
	workers = 2
)

// quality is one op's contribution to the circuit-quality metrics.
type quality struct {
	area  float64 // µm²
	delay float64 // simulated ns
}

// mismatchError marks an output that disagrees with its reference.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "output check: " + e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

func isMismatch(err error) bool {
	var m *mismatchError
	return errors.As(err, &m)
}

// session is one set-up workload, ready to run ops.
type session interface {
	// op runs op number i of the given client and returns its quality
	// contribution.
	op(ctx context.Context, client, i int) (quality, error)
	// finish runs the checks that happen after the timed window and
	// returns the number of mismatching ops they found.
	finish(ctx context.Context) (int, error)
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	clients int
	// qualityOps is how many leading ops of each client the quality
	// metrics sum over: a fixed, seed-determined input list.
	qualityOps int
	setup      func(ctx context.Context, env *env) (session, error)
	traced     func(ctx context.Context, env *env, tr *tracer, seconds float64) (*tracedResult, error)
}

// env is what every workload's set-up receives.
type env struct {
	seed    int64
	workdir string // scratch directory inside the checkout
	setupN  int    // which set-up repetition this is
}

var workloads = map[string]*workload{
	"table3":     table3Workload,
	"ssem-sim":   ssemWorkload,
	"balsa-edit": editWorkload,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table3, ssem-sim or balsa-edit")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed window per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, workdir: *workdir}
	ctx := context.Background()
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(ctx, w, e, *seconds)
	} else {
		rep, err = runTimed(ctx, w, e, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printReport(os.Stdout, w.name, *seed, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport writes one human-readable line per metric, then the JSON
// result as the last line.
func printReport(f *os.File, name string, seed int64, rep *report) {
	out := bufio.NewWriter(f)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d: %d attempted, %d failed, correct=%t\n", name, seed, rep.Attempted, rep.Failed, rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %16s %s\n", k, strconv.FormatFloat(rep.Metrics[k].Value, 'g', -1, 64), rep.Metrics[k].Unit)
	}
	b, _ := json.Marshal(rep) // a map of plain numbers always encodes
	out.Write(b)
	out.WriteString("\n")
}

// setupTimed sets the workload up setupRepeats times and returns the
// last session with the median set-up time. The first set-up is timed
// from process start, so it includes the runtime's own start-up.
func setupTimed(ctx context.Context, w *workload, e *env) (session, float64, error) {
	var times []float64
	var s session
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		e.setupN = k
		var err error
		s, err = w.setup(ctx, e)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, median(times), nil
}

// runTimed is the end-to-end run: tracing off, every client in a
// closed loop until the window closes.
func runTimed(ctx context.Context, w *workload, e *env, seconds float64) (*report, error) {
	s, setupS, err := setupTimed(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var mu sync.Mutex
	var t tally
	qual := make([][]quality, w.clients)
	var completed, succeeded atomic.Int64
	// opPeaks holds the peak resident set of each op that started before
	// minOps ops had completed: a fixed amount of work, so a daemon that
	// keeps every job in memory is not charged for having run faster.
	var opPeaks []float64
	rss, err := startRSSSampler(w.clients)
	if err != nil {
		return nil, err
	}
	var firstErr error

	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if time.Now().After(deadline) && (succeeded.Load() >= minOps || completed.Load() >= giveUpOps) && i >= w.qualityOps {
					return
				}
				sampled := completed.Load() < minOps
				rss.begin(c)
				t0 := time.Now()
				q, err := s.op(ctx, c, i)
				d := time.Since(t0)
				peak := rss.peak(c)
				completed.Add(1)
				if err == nil {
					succeeded.Add(1)
				}
				mu.Lock()
				if sampled {
					opPeaks = append(opPeaks, float64(peak)/1e6)
				}
				if err != nil {
					t.fail(isMismatch(err))
					if firstErr == nil {
						firstErr = err
					}
				} else {
					t.ok(d)
				}
				if i < w.qualityOps {
					qual[c] = append(qual[c], q)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	rss.close()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	late, err := s.finish(ctx)
	if err != nil {
		return nil, err
	}
	for k := 0; k < late; k++ {
		t.lateMismatch()
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failed op: %v\n", w.name, firstErr)
	}

	p50, p90, err := t.latencyMetrics()
	if err != nil {
		return nil, err
	}
	var q quality
	for _, qs := range qual {
		for _, x := range qs {
			q.area += x.area
			q.delay += x.delay
		}
	}
	ops := float64(t.attempted)
	rep := &report{
		Correct:   t.mismatches == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"latency_p50_ms":   {p50, "ms"},
			"latency_p90_ms":   {p90, "ms"},
			"throughput_ops_s": {float64(len(t.latencies)) / elapsed, "1/s"},
			"success_rate":     {t.successRate(), "ratio"},
			"setup_s":          {setupS, "s"},
			"peak_rss_mb":      {median(opPeaks), "MB"},
			"alloc_mb_per_op":  {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops, "MB"},
			"opt_area_um2":     {q.area, "um2"},
			"opt_delay_ns":     {q.delay, "sim_ns"},
		},
	}
	return rep, nil
}
