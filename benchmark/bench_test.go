package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// roundBytes renders the next n serve_mix rounds of a seed as bytes.
func roundBytes(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	w := &serveWorkload{sz: quickSizes}
	w.seedInputs(seed)
	if err := w.choosePrimed(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range w.primed {
		buf.WriteString(p.key)
	}
	for i := 0; i < n; i++ {
		scripts, err := w.script()
		if err != nil {
			t.Fatal(err)
		}
		for c, s := range scripts {
			for _, rq := range s {
				buf.WriteString(rq.class)
				buf.WriteByte(byte(c))
				buf.Write(rq.body)
			}
		}
	}
	return buf.Bytes()
}

func TestSeedFixesInputs(t *testing.T) {
	a, b, c := roundBytes(t, 7, 3), roundBytes(t, 7, 3), roundBytes(t, 8, 3)
	if !bytes.Equal(a, b) {
		t.Error("serve_mix: the same seed gave two different scripts")
	}
	if bytes.Equal(a, c) {
		t.Error("serve_mix: seeds 7 and 8 gave the same script")
	}

	order := func(seed uint64) []int {
		w := &sweepWorkload{slots: fullSizes.sweepSlots}
		w.first = int(seed % uint64(len(w.slots)))
		var o []int
		for i := 0; i < 2*w.period(); i++ {
			o = append(o, w.slot(i))
		}
		return o
	}
	if got, again := order(7), order(7); !equalInts(got, again) {
		t.Errorf("paper_sweep: seed 7 ordered the slots %v then %v", got, again)
	}
	if equalInts(order(7), order(8)) {
		t.Error("paper_sweep: seeds 7 and 8 ordered the slots the same way")
	}

	x9, x10 := aluExpect(3, 1000, 7, 8)
	if y9, y10 := aluExpect(3, 1000, 9, 8); x9 == y9 && x10 == y10 {
		t.Error("alu: different seeds left the same registers")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpecSpaceDistinct walks the whole serve_mix spec space: every
// index must canonicalise, and no two to the same key nor to a fixed
// primed spec, or a "never-seen" spec could be a hit.
func TestSpecSpaceDistinct(t *testing.T) {
	seen := map[string]uint64{}
	w := &serveWorkload{sz: quickSizes}
	w.seedInputs(1)
	if err := w.choosePrimed(); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.primed[:5] { // the canary and the SPLASH-2 specs
		seen[p.key] = spaceSize()
	}
	for i := uint64(0); i < spaceSize(); i++ {
		spec, err := specAt(i)
		if err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
		_, key, err := encodeSpec(spec)
		if err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
		if j, dup := seen[key]; dup {
			t.Fatalf("indices %d and %d are the same spec", j, i)
		}
		seen[key] = i
	}
}

var spinSink float64

//go:noinline
func decoderTestSpin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

func TestDecodeProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("workload", "decoder_test"), func(context.Context) {
		decoderTestSpin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, labeled int64
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "decoderTestSpin") {
				spin += s.value
				if s.labels["workload"] == "decoder_test" {
					labeled += s.value
				}
				break
			}
		}
	}
	if spin < (50 * time.Millisecond).Nanoseconds() {
		t.Fatalf("decoded %d samples with %v of decoderTestSpin; want most of 300ms", len(samples), time.Duration(spin))
	}
	if labeled != spin {
		t.Errorf("%v of %v in decoderTestSpin carried the pprof label", time.Duration(labeled), time.Duration(spin))
	}

	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestLayersFile(t *testing.T) {
	m, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string]string{
		"cyclops/internal/sim.(*eventQueue).pop":    "cpu.sim_sched",
		"cyclops/internal/sim.(*Machine).sortBatch": "cpu.sim_sched",
		"cyclops/internal/sim.(*Machine).stepBlock": "cpu.sim_engine",
		"cyclops/internal/cache.(*System).Load":     "cpu.memsys",
		"cyclops/internal/perf.(*Machine).Run":      "cpu.perf",
		"cyclops/internal/job.(*Runner).runTraced":  "cpu.service",
		"runtime.futex":                              "cpu.runtime_sched",
		"runtime.mallocgc":                           "cpu.runtime_gc",
		"github.com/nobody/nothing.Func":             "cpu.other",
		"cyclops/internal/stream.(*gen).kernelLoop":  "cpu.workload",
		"cyclops/internal/harness.Fig6a":             "cpu.harness",
		"cyclops/internal/obs.(*Tracer).record":      "cpu.obs",
		"cyclops/internal/timing.(*Ledger).WaitFPU":  "cpu.timing",
		"cyclops/internal/sim.(*Machine).compact":    "cpu.sim_sched",
		"cyclops/internal/serve.(*Server).handleRun": "cpu.service",
	} {
		if got := m.layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
	known := map[string]bool{"cpu.other": true}
	for _, pm := range perLayer {
		known[pm.name] = true
	}
	for _, l := range m.Layers {
		if !known[l.Name] {
			t.Errorf("layers.json names %s, which is not a per-layer metric", l.Name)
		}
	}
	samples := []cpuSample{
		{stack: []string{"runtime.memmove", "fmt.Sprintf", "cyclops/internal/stream.(*gen).f"}, value: 3, labels: map[string]string{"workload": "w"}},
		{stack: []string{"cyclops/internal/sim.(*eventQueue).push", "cyclops/internal/sim.(*Machine).runBlock"}, value: 6},
		{stack: []string{"runtime.futex", "main.reference.func1"}, value: 100},
		{stack: []string{"example.com/unknown.F"}, value: 1},
	}
	if got := m.leaf(samples[0]); got != "cyclops/internal/stream.(*gen).f" {
		t.Errorf("leaf past transparent frames = %q", got)
	}
	shares, labelled := m.shares(samples, "workload", "w")
	if shares["cpu.workload"] != 0.3 || shares["cpu.sim_sched"] != 0.6 || shares["cpu.other"] != 0.1 || labelled != 0.3 {
		t.Errorf("shares = %v, labelled %g; want workload .3, sim_sched .6, other .1, the reference dropped", shares, labelled)
	}
}

func TestStats(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %g", got)
	}
	v := []float64{10, 20, 30, 40, 50}
	if got := quantile(v, 0.99); math.Abs(got-49.6) > 1e-9 {
		t.Errorf("quantile(.99) = %g, want 49.6", got)
	}
	if got := quantile(v, 0); got != 10 {
		t.Errorf("quantile(0) = %g", got)
	}
	if v[0] != 10 || v[4] != 50 {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{1, 7, 3}, 1); got != 7 {
		t.Errorf("quantile(1) = %g", got)
	}
	if got := relDiff(2, 2.5); got != 0.25 {
		t.Errorf("relDiff(2, 2.5) = %g", got)
	}
	if got := refSeconds(time.Second, refNominal, 3*refNominal); got != 0.5 {
		t.Errorf("refSeconds at half speed = %g, want 0.5", got)
	}
}

// TestQuickSmoke runs both passes of every workload at the quick sizing
// and holds the benchmark's tables against BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	probes, err := probeValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for i, wl := range spec.Workloads {
		name := workloadNames[i]
		if wl.Name != name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, wl.Name, name)
			continue
		}
		res, w, err := measure(name, quickSizes, 3, 0, gold, passOptions{setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		w.close()
		if !res.correct() || res.golden != "ok" {
			t.Errorf("%s untraced: failed=%d golden=%s %v", name, res.failed, res.golden, res.errs)
		}
		e2e := res.endToEnd()
		if len(e2e) != len(spec.EndToEnd) {
			t.Fatalf("%d end-to-end metrics, BENCHMARK.json has %d", len(e2e), len(spec.EndToEnd))
		}
		for j, m := range e2e {
			if m.name != spec.EndToEnd[j].Name || m.unit != spec.EndToEnd[j].Unit {
				t.Errorf("%s: end-to-end metric %d is %s [%s], BENCHMARK.json has %s [%s]", name, j, m.name, m.unit, spec.EndToEnd[j].Name, spec.EndToEnd[j].Unit)
			}
			if !(m.value > 0) {
				t.Errorf("%s: %s = %g, want > 0", name, m.name, m.value)
			}
		}

		tres, values, spans, err := traceWorkload(name, quickSizes, 3, 0, gold, layers, probes)
		if err != nil {
			t.Fatal(err)
		}
		if !tres.correct() {
			t.Errorf("%s traced: failed=%d %v", name, tres.failed, tres.errs)
		}
		if len(spans) == 0 {
			t.Errorf("%s traced: no spans", name)
		}
		for k := range values {
			if !strings.HasPrefix(k, "cpu.") && !hasMetric(k) {
				t.Errorf("%s traced: value %s is not a per-layer metric", name, k)
			}
		}
		for _, k := range []string{"host.op_p50_s", "host.ops", "trace.overhead_ratio", "cache.load_hit_ns", "perf.op_ns", "job.run_miss_s"} {
			if !(values[k] > 0) {
				t.Errorf("%s traced: %s = %g, want > 0", name, k, values[k])
			}
		}
	}
}

func hasMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
