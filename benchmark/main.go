// Command benchmark is the repository's performance benchmark: seven
// workloads, one per rung of the simulator stack, each reporting host
// time, host allocation and set-up time with every simulated output
// checked, and on a separate traced pass the per-layer numbers. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds      = flag.Float64("seconds", 12, "how long each workload is measured")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans as a Chrome trace to this file")
		quick        = flag.Bool("quick", false, "tiny sizes, for smoke tests")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced pass twice and compare the pairs against the bounds")
		update       = flag.Bool("update-golden", false, "rewrite golden.json from this tree's outputs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *update {
		if err := updateGolden(); err != nil {
			fatal(err)
		}
		return
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = strings.Split(*workloadFlag, ",")
	}
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	gold, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# GOMAXPROCS=%d %s semantics=%s sizes=%s seed=%d seconds=%g\n",
		runtime.GOMAXPROCS(0), runtime.Version(), gold.Semantics, sz.name, *seed, *seconds)

	ok := true
	switch {
	case *selfcheck:
		ok, err = selfCheck(names, sz, *seed, *seconds, gold)
	case *trace == 1:
		ok, err = tracedPass(names, sz, *seed, *seconds, gold, *traceOut)
	default:
		ok, err = untracedPass(names, sz, *seed, *seconds, gold)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// untraced measures one workload with tracing off and prints its table.
func untraced(name string, sz sizes, seed uint64, seconds float64, gold *golden) (*runResult, error) {
	res, w, err := measure(name, sz, seed, seconds, gold, passOptions{setups: setupRepeats})
	if err != nil {
		return nil, err
	}
	w.close()
	report(res, res.endToEnd(), res.diagnostics())
	return res, nil
}

func untracedPass(names []string, sz sizes, seed uint64, seconds float64, gold *golden) (bool, error) {
	ok := true
	for _, name := range names {
		res, err := untraced(name, sz, seed, seconds, gold)
		if err != nil {
			return false, err
		}
		ok = ok && res.correct()
	}
	return ok, nil
}

// diagnostics are printed beside the end-to-end metrics for a reader;
// nothing is gated on them.
func (r *runResult) diagnostics() []metric {
	return []metric{
		{"periods", float64(len(r.wall)), "count"},
		{"op_p50_s", median(r.opWall), "s"},
		{"op_max_s", quantile(r.opWall, 1), "s"},
		{"op_raw_p50_s", median(r.opRaw), "s"},
		{"reference_p50_s", median(r.refs), "s"},
		{"reference_max_s", quantile(r.refs, 1), "s"},
	}
}

// report prints one workload's table and, as the last line, the result
// object the driver reads.
func report(res *runResult, metrics, extra []metric) {
	fmt.Printf("== %s  ops=%d failed=%d golden=%s\n", res.workload, res.attempted, res.failed, res.golden)
	for _, e := range res.errs {
		fmt.Printf("   ! %s\n", e)
	}
	for _, m := range append(append([]metric(nil), metrics...), extra...) {
		fmt.Printf("   %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// selfCheck runs the untraced pass twice and compares the two values of
// every end-to-end metric against its bound in BENCHMARK.json.
func selfCheck(names []string, sz sizes, seed uint64, seconds float64, gold *golden) (bool, error) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return false, err
	}
	ok := true
	var lines []string
	for _, name := range names {
		var runs [2]*runResult
		for k := range runs {
			res, err := untraced(name, sz, seed, seconds, gold)
			if err != nil {
				return false, err
			}
			ok = ok && res.correct()
			runs[k] = res
		}
		first, second := runs[0].endToEnd(), runs[1].endToEnd()
		for i, m := range first {
			bound := spec.bound(m.name)
			d := relDiff(m.value, second[i].value)
			verdict := "ok"
			if math.Abs(d) > bound {
				verdict = "DISAGREE"
				ok = false
			}
			lines = append(lines, fmt.Sprintf("%-12s %-9s %12.6g %12.6g %-3s %+7.2f%%  bound %4.1f%%  %s",
				name, m.name, m.value, second[i].value, m.unit, 100*d, 100*bound, verdict))
		}
	}
	fmt.Println("== selfcheck: workload, metric, first, second, difference, bound")
	for _, l := range lines {
		fmt.Println("   " + l)
	}
	return ok, nil
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// checkoutRoot is the root of the checkout seen from the working
// directory: the root itself (how the benchmark is run) or this directory
// (how its tests are run).
func checkoutRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return ".."
	}
	return "."
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(checkoutRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchmarkSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
