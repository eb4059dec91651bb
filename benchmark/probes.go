package main

import (
	"fmt"
	"os"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/core"
	"cyclops/internal/job"
	"cyclops/internal/mem"
	"cyclops/internal/perf"
	"cyclops/internal/resultcache"
	"cyclops/internal/timing"
)

// The probes time single layers directly, from outside, on synthetic
// inputs. They do not depend on the workload; the traced pass prints
// them beside each workload's numbers so that a change to one layer
// shows both in its probe and in the workloads the README says it
// should move.

const probeBatches = 5

// probeValues runs every probe once.
func probeValues() (map[string]float64, error) {
	v := map[string]float64{}
	for _, m := range memsysProbes() {
		v[m.name] = m.value
	}
	pm, err := perfProbe()
	if err != nil {
		return nil, err
	}
	v[pm.name] = pm.value
	jm, err := jobProbes()
	if err != nil {
		return nil, err
	}
	for _, m := range jm {
		v[m.name] = m.value
	}
	return v, nil
}

// perCall returns the median over probeBatches of the nanoseconds per
// call of fn(n), which must make n calls.
func perCall(n int, fn func(n int)) float64 {
	var v []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		fn(n)
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(v)
}

// medianSeconds returns the median duration of fn over n calls.
func medianSeconds(n int, fn func(i int) error) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		v = append(v, time.Since(t0).Seconds())
	}
	return median(v), nil
}

var probeSink uint64

// memsysProbes times the cache and memory model's entry points on
// address streams that pin each outcome: a hit set that fits one cache,
// a line-strided sweep of 4 MB that always misses, and the bank-side
// calls on their own.
func memsysProbes() []metric {
	cfg := arch.Default()
	line := uint32(cfg.DCacheLine)
	own := arch.InterestGroup{Mode: arch.GroupOwn}
	const calls = 200_000

	sys := cache.NewSystem(cfg, mem.New(cfg))
	for i := uint32(0); i < 64; i++ { // warm 64 lines of cache 0
		sys.Load(uint64(i), arch.EA(own, i*line), 8, 0)
	}
	now := uint64(1000)
	hit := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			a := sys.Load(now, arch.EA(own, uint32(i&63)*line), 8, 0)
			now = a.Done
		}
	})
	miss := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			a := sys.Load(now, arch.EA(own, (uint32(i)*line)&(4<<20-1)), 8, 0)
			now = a.Done
		}
	})
	store := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			a := sys.Store(now, arch.EA(own, (uint32(i)*8)&(4<<20-1)), 8, 0)
			now = a.Done
		}
	})
	m := mem.New(cfg)
	fill := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			now = m.FillLine(now, (uint32(i)*line)&(4<<20-1))
		}
	})
	wt := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			now = m.WriteThrough(now, (uint32(i)*8)&(4<<20-1), 8)
		}
	})
	var led timing.Ledger
	acc := cache.Access{Where: cache.LocalMiss, Wait: cache.Wait{Port: 1, Bank: 2}}
	settle := perCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			now = led.SettleAccess(acc, now, now+3)
		}
	})
	probeSink += now + led.Stall
	return []metric{
		{"cache.load_hit_ns", hit, "ns"},
		{"cache.load_miss_ns", miss, "ns"},
		{"cache.store_ns", store, "ns"},
		{"mem.fill_line_ns", fill, "ns"},
		{"mem.write_through_ns", wt, "ns"},
		{"timing.settle_ns", settle, "ns"},
	}
}

// perfProbe is BENCH_timing.json's loop: 32 threads of load, fused
// multiply-add and store on a bare direct-execution machine.
func perfProbe() (metric, error) {
	const threads, iters = 32, 300
	var v []float64
	for b := 0; b < probeBatches; b++ {
		chip, err := core.NewChip(arch.Default())
		if err != nil {
			return metric{}, err
		}
		m := perf.New(chip)
		ea := m.SharedAlloc(1 << 16)
		t0 := time.Now()
		err = m.SpawnN(threads, func(t *perf.T, idx int) {
			for k := 0; k < iters; k++ {
				x := t.LoadF64(ea + uint32(8*((idx*iters+k)%8000)))
				t.StoreF64(ea+uint32(8*idx), t.FMA(x))
			}
		})
		if err == nil {
			err = m.Run()
		}
		if err != nil {
			return metric{}, err
		}
		v = append(v, float64(time.Since(t0).Nanoseconds())/(threads*iters*3))
	}
	return metric{"perf.op_ns", median(v), "ns"}, nil
}

// jobProbes times the job layer and the result cache on the canary
// spec: canonicalisation, keying, an uncached run, a cached run, and the
// cache's memory tier, disk tier and writes.
func jobProbes() ([]metric, error) {
	spec, err := canarySpec()
	if err != nil {
		return nil, err
	}
	canon, err := medianSeconds(50, func(int) error { _, err := spec.Canonicalize(); return err })
	if err != nil {
		return nil, err
	}
	c, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	key, err := medianSeconds(50, func(int) error { _, err := c.Key(); return err })
	if err != nil {
		return nil, err
	}
	miss, err := medianSeconds(5, func(int) error { _, err := job.NewRunner().Run(spec); return err })
	if err != nil {
		return nil, err
	}
	warm := job.NewRunner()
	warm.Cache = resultcache.OpenMemory(0)
	if _, err := warm.Run(spec); err != nil {
		return nil, err
	}
	hit, err := medianSeconds(50, func(int) error { _, err := warm.Run(spec); return err })
	if err != nil {
		return nil, err
	}
	if st := warm.Stats(); st.Executions != 1 {
		return nil, fmt.Errorf("job probe: %d executions of one spec behind a cache, want 1", st.Executions)
	}

	// Sixty-four 1 KB entries behind a 16 KB memory tier: the newest are
	// memory hits, the oldest disk hits.
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "probe-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc, err := resultcache.Open(dir, job.SemanticsVersion, 16<<10)
	if err != nil {
		return nil, err
	}
	const entries = 64
	payload := make([]byte, 1<<10)
	keyOf := func(i int) resultcache.Key { return resultcache.Key{byte(i), 0xbe} }
	put, err := medianSeconds(entries, func(i int) error { return rc.Put(keyOf(i), payload) })
	if err != nil {
		return nil, err
	}
	get := func(i int) error {
		if _, ok := rc.Get(keyOf(i)); !ok {
			return fmt.Errorf("resultcache probe: entry %d lost", i)
		}
		return nil
	}
	memGet, err := medianSeconds(8, func(i int) error { return get(entries - 1 - i%4) })
	if err != nil {
		return nil, err
	}
	before := rc.Stats()
	diskGet, err := medianSeconds(8, func(i int) error { return get(i) })
	if err != nil {
		return nil, err
	}
	if got := rc.Stats().DiskHits - before.DiskHits; got != 8 {
		return nil, fmt.Errorf("resultcache probe: %d of 8 old entries came from disk", got)
	}
	return []metric{
		{"job.canonicalize_s", canon, "s"},
		{"job.key_s", key, "s"},
		{"job.run_miss_s", miss, "s"},
		{"job.run_hit_s", hit, "s"},
		{"resultcache.get_mem_s", memGet, "s"},
		{"resultcache.get_disk_s", diskGet, "s"},
		{"resultcache.put_s", put, "s"},
	}, nil
}
