// Command cyclops-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	cyclops-bench -list
//	cyclops-bench -run fig4a,fig7a [-scale full] [-csv outdir]
//	cyclops-bench -all -scale full [-parallel N]
//	cyclops-bench -run fig4a -trace-runs trace.json -metrics-out metrics.txt
//
// Every experiment point is an independent deterministic simulation, so
// the sweeps fan out across -parallel workers (default: all CPUs) and the
// experiments themselves run concurrently. Tables print to stdout in
// input order and are byte-identical for any -parallel value.
// -policy/-switch-penalty select the default issue policy and -lat the
// default latency model for every sweep (the scenario matrix experiment
// varies both per point regardless). -cache-dir points the
// sweeps at a content-addressed result cache directory (created on
// first use): warm entries skip simulation entirely, so a repeated
// -run renders the same bytes from cache alone, and the directory is
// shared safely with cyclops-serve. -trace-runs records every
// experiment point's run stages (canonicalize, cache lookup, execute,
// encode, store) as spans and writes them as a Chrome trace-event JSON
// (load it in Perfetto); -metrics-out writes the run-layer counters and
// per-stage/per-workload latency histograms in the same sorted text
// format cyclops-serve's /metrics speaks. Both files, and the -csv
// directory, are created up front, and tracing stays off — and free —
// unless asked for. Host-side speed is measured by the repository
// benchmark (benchmark/run.sh), not here. Timing and errors go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cyclops/internal/cli"
	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/job"
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
)

// result is one finished experiment: its rendered table or its error.
type result struct {
	tab     *harness.Table
	err     error
	elapsed time.Duration
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	runIDs := flag.String("run", "", "comma-separated experiment ids")
	all := flag.Bool("all", false, "run every experiment")
	scaleStr := flag.String("scale", "small", "experiment scale: small | full (paper parameters)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	parallel := flag.Int("parallel", runtime.NumCPU(), "sweep worker pool size (1 = fully serial)")
	jf := job.AddFlags(flag.CommandLine)
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory; warm entries skip simulation")
	traceRuns := flag.String("trace-runs", "", "record every experiment point's run stages as spans and write a Chrome trace-event JSON to this file (- = stdout)")
	metricsOut := flag.String("metrics-out", "", "write the run-layer counters and latency histograms in /metrics text format to this file (- = stdout)")
	flag.Parse()

	// Every experiment point is a spec resolved by harness.Runner, so the
	// selections reach them all as the defaults blank spec fields
	// inherit. The matrix experiment's points name their own policies
	// and are unaffected by -policy.
	defaults, err := jf.Defaults()
	if err != nil {
		fatal(err)
	}
	harness.Runner.Defaults = defaults
	if *cacheDir != "" {
		c, err := resultcache.Open(*cacheDir, job.SemanticsVersion, 0)
		if err != nil {
			fatal(err)
		}
		harness.UseCache(c)
	}

	// Telemetry outputs and the -csv directory are created up front
	// (like cyclops-sim's outputs): a bad path must fail before hours of
	// sweeps, not after. Tracing stays off
	// — and free — unless asked for; -metrics-out implies it because the
	// stage histograms are fed from span durations.
	outTrace, err := cli.CreateOut(*traceRuns)
	if err != nil {
		fatal(err)
	}
	outMetrics, err := cli.CreateOut(*metricsOut)
	if err != nil {
		fatal(err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if outTrace != nil {
		harness.Runner.Tracer = obs.NewTracer(benchTraceCapacity)
	}
	var metrics *obs.Metrics
	if outMetrics != nil {
		metrics = obs.NewMetrics()
		harness.Runner.Instrument(metrics)
	}
	flushTelemetry := func() {
		if err := outTrace.Emit(func(w io.Writer) error {
			tr := harness.Runner.Tracer
			if n := tr.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "cyclops-bench: trace ring overflowed, oldest %d spans dropped\n", n)
			}
			return obs.WriteSpansChrome(w, tr.Snapshot())
		}); err != nil {
			fatal(err)
		}
		if err := outMetrics.Emit(metrics.WriteText); err != nil {
			fatal(err)
		}
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-15s %s\n", e.ID, e.Brief)
		}
		flushTelemetry()
		return
	}
	scale, err := harness.ParseScale(*scaleStr)
	if err != nil {
		fatal(err)
	}
	sweep.SetWorkers(*parallel)
	var exps []harness.Experiment
	switch {
	case *all:
		exps = harness.Experiments()
	case *runIDs != "":
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.Lookup(strings.TrimSpace(id))
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q (try -list)", id))
			}
			exps = append(exps, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: cyclops-bench -list | -run id[,id...] | -all  [-scale small|full] [-csv dir] [-parallel N]")
		os.Exit(2)
	}

	start := time.Now()
	results := runExperiments(exps, scale, *parallel > 1)
	failed := 0
	for i, e := range exps {
		r := results[i]
		fmt.Fprintf(os.Stderr, "cyclops-bench: %-15s %8.2fs\n", e.ID, r.elapsed.Seconds())
		if r.err != nil {
			// Report and keep going; a broken experiment must not cost
			// the rest of the run.
			fmt.Fprintf(os.Stderr, "cyclops-bench: %s: %v\n", e.ID, r.err)
			failed++
			continue
		}
		r.tab.Fprint(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(r.tab.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "cyclops-bench: %d/%d experiments in %.2fs (%d workers)\n",
		len(exps)-failed, len(exps), time.Since(start).Seconds(), sweep.Workers())
	flushTelemetry()
	if failed > 0 {
		os.Exit(1)
	}
}

// benchTraceCapacity sizes the -trace-runs span ring: a full -all sweep
// records well under 100k spans, so a quarter-million keeps everything
// while bounding a runaway sweep's memory.
const benchTraceCapacity = 1 << 18

// runExperiments executes the experiments — concurrently when the pool
// allows it, serially otherwise — returning results in input order. The
// per-point fan-out inside each experiment shares the process-wide sweep
// pool, so total simulation concurrency stays bounded either way.
func runExperiments(exps []harness.Experiment, scale harness.Scale, concurrent bool) []result {
	results := make([]result, len(exps))
	runOne := func(i int) {
		t0 := time.Now()
		tab, err := exps[i].Run(scale)
		results[i] = result{tab: tab, err: err, elapsed: time.Since(t0)}
	}
	if !concurrent {
		for i := range exps {
			runOne(i)
		}
		return results
	}
	done := make(chan int)
	for i := range exps {
		go func(i int) {
			runOne(i)
			done <- i
		}(i)
	}
	for range exps {
		<-done
	}
	return results
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cyclops-bench:", err)
	os.Exit(1)
}
