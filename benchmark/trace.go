package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"cyclops/internal/harness"
	"cyclops/internal/job"
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
	"cyclops/internal/sim"
)

// perLayer is every per-layer metric, in BENCHMARK.json's order. A
// traced run prints all of them for its workload; one that does not
// apply to the workload reads 0.
var perLayer = []metric{
	{name: "host.op_p50_s", unit: "s"}, {name: "host.op_max_s", unit: "s"},
	{name: "host.ops", unit: "count"}, {name: "host.gc_cycles", unit: "count"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "stream.generate_s", unit: "s"}, {name: "asm.assemble_s", unit: "s"},
	{name: "core.new_chip_s", unit: "s"}, {name: "kernel.boot_s", unit: "s"},
	{name: "sim.run_s", unit: "s"}, {name: "sim.ns_per_inst", unit: "ns"}, {name: "sim.mips", unit: "MIPS"},
	{name: "sim.insts", unit: "count"}, {name: "sim.cycles", unit: "count"}, {name: "sim.block_compiles", unit: "count"},
	{name: "cache.load_hit_ns", unit: "ns"}, {name: "cache.load_miss_ns", unit: "ns"}, {name: "cache.store_ns", unit: "ns"},
	{name: "mem.fill_line_ns", unit: "ns"}, {name: "mem.write_through_ns", unit: "ns"}, {name: "timing.settle_ns", unit: "ns"},
	{name: "perf.fft_hw_s", unit: "s"}, {name: "perf.fft_sw_s", unit: "s"}, {name: "perf.ns_per_sim_cycle", unit: "ns"},
	{name: "perf.op_ns", unit: "ns"}, {name: "perf.sim_cycles_hw", unit: "count"}, {name: "perf.sim_cycles_sw", unit: "count"},
	{name: "model.triad_ooc_gbps", unit: "GB/s"}, {name: "model.triad_local_gbps", unit: "GB/s"},
	{name: "model.fft64k_hw_gain_pct", unit: "%"}, {name: "model.stall_frac", unit: "ratio"},
	{name: "harness.fig6a_s", unit: "s"}, {name: "harness.fault_s", unit: "s"}, {name: "harness.splash_s", unit: "s"},
	{name: "harness.stream1t_apps_s", unit: "s"}, {name: "harness.fig5d_s", unit: "s"}, {name: "harness.tables_s", unit: "s"},
	{name: "harness.points", unit: "count"}, {name: "harness.warm_pass_s", unit: "s"},
	{name: "job.canonicalize_s", unit: "s"}, {name: "job.key_s", unit: "s"},
	{name: "job.run_miss_s", unit: "s"}, {name: "job.run_hit_s", unit: "s"},
	{name: "job.stage_canonicalize_s", unit: "s"}, {name: "job.stage_cache_lookup_s", unit: "s"},
	{name: "job.stage_coalesce_wait_s", unit: "s"}, {name: "job.stage_execute_s", unit: "s"},
	{name: "job.stage_encode_s", unit: "s"}, {name: "job.stage_store_s", unit: "s"},
	{name: "resultcache.get_mem_s", unit: "s"}, {name: "resultcache.get_disk_s", unit: "s"},
	{name: "resultcache.put_s", unit: "s"}, {name: "resultcache.mem_hit_ratio", unit: "ratio"},
	{name: "serve.hit_p50_s", unit: "s"}, {name: "serve.hit_p99_s", unit: "s"},
	{name: "serve.miss_p50_s", unit: "s"}, {name: "serve.miss_p99_s", unit: "s"},
	{name: "serve.coalesced_p50_s", unit: "s"}, {name: "serve.queue_wait_p50_s", unit: "s"},
	{name: "serve.req_per_s", unit: "1/s"}, {name: "serve.coalesced_ratio", unit: "ratio"},
	{name: "cpu.sim_sched", unit: "ratio"}, {name: "cpu.sim_engine", unit: "ratio"}, {name: "cpu.memsys", unit: "ratio"},
	{name: "cpu.timing", unit: "ratio"}, {name: "cpu.perf", unit: "ratio"}, {name: "cpu.workload", unit: "ratio"},
	{name: "cpu.harness", unit: "ratio"}, {name: "cpu.service", unit: "ratio"}, {name: "cpu.obs", unit: "ratio"},
	{name: "cpu.runtime_gc", unit: "ratio"}, {name: "cpu.runtime_sched", unit: "ratio"}, {name: "cpu.other", unit: "ratio"},
}

// spanNames are the spans whose per-op total feeds the metric of the
// same name with _s appended.
var spanNames = []string{"stream.generate", "asm.assemble", "core.new_chip", "kernel.boot", "sim.run", "perf.fft_hw", "perf.fft_sw"}

// otherWarn is the cpu.other share above which the traced pass warns
// that layers.json has fallen behind the code.
const otherWarn = 0.10

func tracedPass(names []string, sz sizes, seed uint64, seconds float64, gold *golden, out string) (bool, error) {
	layers, err := loadLayers()
	if err != nil {
		return false, err
	}
	probes, err := probeValues()
	if err != nil {
		return false, err
	}
	ok := true
	var spans []obs.Span
	for _, name := range names {
		res, values, sp, err := traceWorkload(name, sz, seed, seconds, gold, layers, probes)
		if err != nil {
			return false, err
		}
		metrics := make([]metric, len(perLayer))
		for i, m := range perLayer {
			metrics[i] = metric{m.name, values[m.name], m.unit}
		}
		report(res, metrics, nil)
		ok = ok && res.correct()
		spans = append(spans, sp...)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return false, err
		}
		if err := obs.WriteSpansChrome(f, spans); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// traceWorkload is the traced pass over one workload: a short untraced
// window for the overhead ratio, then a window with one span tree per op
// under a CPU profile, and the workload's own cross-checks. The probe
// values are printed with every workload.
func traceWorkload(name string, sz sizes, seed uint64, seconds float64, gold *golden, layers *layerMap, probes map[string]float64) (*runResult, map[string]float64, []obs.Span, error) {
	v := map[string]float64{}
	for k, p := range probes {
		v[k] = p
	}

	base, bw, err := measure(name, sz, seed, seconds/4, gold, passOptions{setups: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	bw.close()

	// The sweep's traced window runs with a cold result cache attached,
	// as `cyclops-bench -all -cache-dir` does, so that the pass after it
	// is warm.
	if name == "paper_sweep" {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return nil, nil, nil, err
		}
		dir, err := os.MkdirTemp(scratchRoot, "sweep-*")
		if err != nil {
			return nil, nil, nil, err
		}
		defer os.RemoveAll(dir)
		c, err := resultcache.Open(filepath.Join(dir, "cache"), job.SemanticsVersion, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		harness.UseCache(c)
		defer harness.UseCache(nil)
	}

	tracer := obs.NewTracerSeeded(1<<17, seed)
	var profile bytes.Buffer
	var execs0 job.Stats
	res, w, err := measure(name, sz, seed, seconds/2, gold, passOptions{setups: 1, tracer: tracer, raw: true,
		started: func(w workload) error {
			execs0 = runnerStats(w)
			return pprof.StartCPUProfile(&profile)
		}})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, nil, err
	}
	defer w.close()
	execs1 := runnerStats(w)
	res.attempted += base.attempted
	res.failed += base.failed
	res.errs = append(res.errs, base.errs...)

	v["host.op_p50_s"] = median(res.opRaw)
	v["host.op_max_s"] = quantile(res.opRaw, 1)
	v["host.ops"] = float64(len(res.opRaw))
	v["host.gc_cycles"] = float64(res.gcCycles)
	if b := median(base.opRaw); b > 0 {
		v["trace.overhead_ratio"] = median(res.opRaw) / b
	}

	spans := tracer.Snapshot()
	if d := tracer.Dropped(); d > 0 {
		fmt.Printf("   ! %s: the span ring dropped %d spans; span metrics cover the rest\n", name, d)
	}
	perOp, all := spanTotals(spans)
	for _, span := range spanNames {
		v[span+"_s"] = median(perOp[span])
	}
	for _, slot := range sz.sweepSlots {
		v[slot.span()+"_s"] = median(perOp[slot.span()])
	}
	for _, stage := range job.Stages {
		v["job.stage_"+stage+"_s"] = median(all[stage])
	}
	printSpanTable(name, spans)

	switch w := w.(type) {
	case *simWorkload:
		err = traceSim(w, name, res, v)
	case *fftWorkload:
		hw, _ := strconv.ParseFloat(res.seen["hw.cycles"], 64)
		sw, _ := strconv.ParseFloat(res.seen["sw.cycles"], 64)
		v["perf.sim_cycles_hw"], v["perf.sim_cycles_sw"] = hw, sw
		if hw > 0 {
			v["perf.ns_per_sim_cycle"] = v["perf.fft_hw_s"] * 1e9 / hw
		}
		v["model.fft64k_hw_gain_pct"], err = fft64kGain(w, seed)
	case *sweepWorkload:
		periods := float64(len(res.wall))
		v["harness.points"] = float64(execs1.Executions-execs0.Executions) / periods
		err = traceWarmSweep(w, res, v)
	case *serveWorkload:
		v["serve.hit_p50_s"], v["serve.hit_p99_s"] = median(all["serve.hit"]), quantile(all["serve.hit"], 0.99)
		v["serve.miss_p50_s"], v["serve.miss_p99_s"] = median(all["serve.miss"]), quantile(all["serve.miss"], 0.99)
		v["serve.coalesced_p50_s"] = median(all["serve.coalesced"])
		v["serve.queue_wait_p50_s"] = median(all["queue_wait"])
		requests := len(all["serve.hit"]) + len(all["serve.miss"]) + len(all["serve.coalesced"])
		v["serve.req_per_s"] = float64(requests) / res.elapsed
		if dups := len(all["serve.coalesced"]) / serveClients; dups > 0 {
			v["serve.coalesced_ratio"] = float64(execs1.Coalesced-execs0.Coalesced) / float64(dups)
		}
		cs := w.srv.Runner().Cache.Stats()
		if hits := cs.MemHits + cs.DiskHits; hits > 0 {
			v["resultcache.mem_hit_ratio"] = float64(cs.MemHits) / float64(hits)
		}
	}
	if err != nil {
		res.failed++
		res.fail("%s: %v", name, err)
	}

	samples, err := decodeProfile(profile.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	shares, labeled := layers.shares(samples, "workload", name)
	for layer, s := range shares {
		v[layer] = s
	}
	fmt.Printf("   cpu shares of %d samples (%.0f%% on goroutines labelled workload=%s):", len(samples), 100*labeled, name)
	for _, m := range perLayer {
		if s, ok := shares[m.name]; ok {
			fmt.Printf(" %s=%.3f", m.name[len("cpu."):], s)
		}
	}
	fmt.Println()
	if shares["cpu.other"] > otherWarn {
		fmt.Printf("   ! %s: cpu.other is %.0f%% of samples; layers.json no longer covers the code. Unmatched leaves:\n", name, 100*shares["cpu.other"])
		for _, fn := range unmatchedLeaves(layers, samples, 8) {
			fmt.Printf("   !   %s\n", fn)
		}
	}
	return res, v, spans, nil
}

// runnerStats reads the job runner a workload drives, if it has one.
func runnerStats(w workload) job.Stats {
	switch w := w.(type) {
	case *sweepWorkload:
		return harness.Runner.Stats()
	case *serveWorkload:
		return w.srv.Runner().Stats()
	}
	return job.Stats{}
}

// spanTotals sums span durations by name within each op's trace
// (perOp, one value per op that has the name) and lists every span's
// duration by name (all), both in seconds.
func spanTotals(spans []obs.Span) (perOp, all map[string][]float64) {
	byTrace := map[obs.TraceID]map[string]float64{}
	var order []obs.TraceID
	all = map[string][]float64{}
	for _, s := range spans {
		all[s.Name] = append(all[s.Name], s.Dur.Seconds())
		t := byTrace[s.Trace]
		if t == nil {
			t = map[string]float64{}
			byTrace[s.Trace] = t
			order = append(order, s.Trace)
		}
		t[s.Name] += s.Dur.Seconds()
	}
	perOp = map[string][]float64{}
	for _, id := range order {
		for name, d := range byTrace[id] {
			perOp[name] = append(perOp[name], d)
		}
	}
	return perOp, all
}

// printSpanTable prints, per span name, the count, total and self time:
// a span's duration minus its children's.
func printSpanTable(workload string, spans []obs.Span) {
	children := map[obs.SpanID]time.Duration{}
	for _, s := range spans {
		if !s.Parent.IsZero() {
			children[s.Parent] += s.Dur
		}
	}
	type row struct {
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.Dur
		if self := s.Dur - children[s.ID]; self > 0 {
			r.self += self
		}
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("   spans of %s: name, count, total s, self s\n", workload)
	for _, n := range names {
		r := rows[n]
		fmt.Printf("     %-22s %7d %10.4f %10.4f\n", n, r.n, r.total.Seconds(), r.self.Seconds())
	}
}

// traceSim reads the simulated counts of one more block-engine run and
// holds them against the legacy engine, the repository's oracle, and for
// the STREAM points against stream.Run, the product's own path.
func traceSim(w *simWorkload, name string, res *runResult, v map[string]float64) error {
	_, block, err := w.run(nil)
	if err != nil {
		return err
	}
	v["sim.insts"], v["sim.cycles"] = float64(block.insts), float64(block.cycles)
	v["sim.block_compiles"] = float64(block.compiles)
	if s := v["sim.run_s"]; s > 0 {
		v["sim.ns_per_inst"] = s * 1e9 / float64(block.insts)
		v["sim.mips"] = float64(block.insts) / s / 1e6
	}
	if busy := block.run + block.stall; busy > 0 {
		v["model.stall_frac"] = float64(block.stall) / float64(busy)
	}
	if best, err := strconv.ParseUint(res.seen["best_cycles"], 10, 64); err == nil && best > 0 {
		v["model."+name+"_gbps"] = w.gbps(best)
	}

	w.engine = sim.EngineLegacy
	_, legacy, err := w.run(nil)
	w.engine = sim.EngineBlock
	if err != nil {
		return fmt.Errorf("legacy engine: %w", err)
	}
	if *legacy != (simRun{cycles: block.cycles, insts: block.insts, run: block.run, stall: block.stall, snapshot: block.snapshot}) {
		return fmt.Errorf("block engine ran %d cycles, %d insts, snapshot %s; legacy oracle %d, %d, %s",
			block.cycles, block.insts, block.snapshot, legacy.cycles, legacy.insts, legacy.snapshot)
	}
	if !w.alu {
		fp, err := w.productPath()
		if err != nil {
			return fmt.Errorf("stream.Run: %w", err)
		}
		for k, got := range fp {
			if res.seen[k] != got {
				return fmt.Errorf("stream.Run gives %s = %s, the spanned path %s", k, got, res.seen[k])
			}
		}
	}
	return nil
}

// fft64kGain runs the Figure 7b point itself, 65,536 points on 64
// threads, once under each barrier kind, and returns the share of cycles
// the hardware barrier saves. The timed ops use a quarter of the points
// to stay short enough to bracket.
func fft64kGain(w *fftWorkload, seed uint64) (float64, error) {
	if w.n < fullSizes.fftN {
		return 0, nil // the quick sizing skips it
	}
	paper := &fftWorkload{n: 65536, threads: 64}
	hwFP, err := paper.setup(seed, nil)
	if err != nil {
		return 0, err
	}
	swFP, err := paper.op(1, nil)
	if err != nil {
		return 0, err
	}
	hw, _ := strconv.ParseFloat(hwFP["hw.cycles"], 64)
	sw, _ := strconv.ParseFloat(swFP["sw.cycles"], 64)
	if hw == 0 || sw == 0 {
		return 0, fmt.Errorf("64K-point FFT reported %g and %g cycles", hw, sw)
	}
	return 100 * (sw - hw) / sw, nil
}

// traceWarmSweep times one more pass over every slot, now that the
// traced window has filled the result cache, and requires it to execute
// nothing that the job layer runs.
func traceWarmSweep(w *sweepWorkload, res *runResult, v map[string]float64) error {
	before := harness.Runner.Stats()
	t0 := time.Now()
	for i := 0; i < w.period(); i++ {
		fp, err := w.op(i, nil)
		if err != nil {
			return err
		}
		for k, got := range fp {
			if res.seen[k] != got {
				return fmt.Errorf("warm pass renders %s = %s, the cold pass %s", k, got, res.seen[k])
			}
		}
	}
	v["harness.warm_pass_s"] = time.Since(t0).Seconds()
	if n := harness.Runner.Stats().Executions - before.Executions; n != 0 {
		return fmt.Errorf("warm pass executed %d points; want 0", n)
	}
	return nil
}

// unmatchedLeaves lists the heaviest leaf functions no layer claims.
func unmatchedLeaves(layers *layerMap, samples []cpuSample, n int) []string {
	weight := map[string]int64{}
	for _, s := range samples {
		if fn := layers.leaf(s); fn != "" && layers.layerOf(fn) == "cpu.other" {
			weight[fn] += s.value
		}
	}
	names := make([]string, 0, len(weight))
	for fn := range weight {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if weight[names[i]] != weight[names[j]] {
			return weight[names[i]] > weight[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}
