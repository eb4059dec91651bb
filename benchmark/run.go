package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"cyclops/internal/obs"
)

// setupRepeats is how many times an untraced run sets the workload up.
const setupRepeats = 5

// runResult is one pass over one workload.
type runResult struct {
	workload  string
	attempted int // ops run, warm-ups included
	failed    int
	errs      []string // first few failures and fingerprint mismatches
	golden    string   // "ok", "stale" or "missing"

	// Per period, in reference seconds and bytes.
	wall  []float64
	alloc []float64
	// Per op.
	opWall   []float64 // reference seconds
	opRaw    []float64 // wall seconds, uncalibrated
	refs     []float64 // reference durations, seconds
	setups   []float64 // reference seconds
	gcCycles int       // collections the ops themselves caused
	elapsed  float64   // wall seconds of the op loop
	seen     fingerprint
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *runResult) fail(format string, args ...any) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check folds one op's fingerprint into the run: every key must repeat
// its first value and match the golden when one applies.
func (r *runResult) check(fp fingerprint, pinned fingerprint) {
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := false
	for _, k := range keys {
		v := fp[k]
		if prev, ok := r.seen[k]; ok && prev != v {
			r.fail("%s: %s = %s, an earlier op gave %s", r.workload, k, v, prev)
			bad = true
		}
		r.seen[k] = v
		if want, ok := pinned[k]; ok && want != v {
			r.fail("%s: %s = %s, golden.json pins %s", r.workload, k, v, want)
			bad = true
		}
	}
	if bad {
		r.failed++
	}
}

// passOptions distinguish the passes that share measure.
type passOptions struct {
	// setups is how many times the workload is set up; setup_s is the
	// median.
	setups int
	// tracer, when set, is handed to the workload and roots one span
	// tree per op.
	tracer *obs.Tracer
	// raw runs the ops back to back with no reference and no forced
	// collection between them, and reports wall seconds: the CPU profile
	// of the traced pass must hold the program, not the benchmark.
	raw bool
	// started, when set, runs after set-up and before the first op.
	started func(w workload) error
}

// measure sets the workload up, then runs whole periods of ops, at least
// one, until `seconds` of wall time have passed. Before every timed op
// the garbage of the previous one is collected off the clock, and the
// reference runs between consecutive ops so each op has one on either
// side. The caller closes the returned workload.
func measure(name string, sz sizes, seed uint64, seconds float64, gold *golden, opt passOptions) (*runResult, workload, error) {
	res := &runResult{workload: name, seen: fingerprint{}}
	pinned, state := gold.pinned(name, sz)
	res.golden = state

	var w workload
	for k := 0; k < opt.setups; k++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, sz); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		before := reference()
		t0 := time.Now()
		fp, err := w.setup(seed, opt.tracer)
		wall := time.Since(t0)
		after := reference()
		res.attempted++
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		res.check(fp, pinned)
		res.setups = append(res.setups, refSeconds(wall, before, after))
	}

	if opt.started != nil {
		if err := opt.started(w); err != nil {
			w.close()
			return nil, nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := ms0.NumGC
	start := time.Now()
	var ref time.Duration
	if !opt.raw {
		runtime.GC()
		ref = reference()
	}
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds || i%w.period() != 0; i++ {
		if i%w.period() == 0 {
			res.wall = append(res.wall, 0)
			res.alloc = append(res.alloc, 0)
		}
		root := opt.tracer.StartTrace("op")
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var fp fingerprint
		var err error
		pprof.Do(context.Background(), pprof.Labels("workload", name), func(context.Context) {
			fp, err = w.op(i, root)
		})
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		root.End()

		res.attempted++
		if err != nil {
			res.failed++
			res.fail("%s: op %d: %v", name, i, err)
		} else {
			res.check(fp, pinned)
		}
		s := wall.Seconds()
		if !opt.raw {
			runtime.GC()
			next := reference()
			s = refSeconds(wall, ref, next)
			res.refs = append(res.refs, ref.Seconds())
			ref = next
		}
		res.opWall = append(res.opWall, s)
		res.opRaw = append(res.opRaw, wall.Seconds())
		res.wall[len(res.wall)-1] += s
		res.alloc[len(res.alloc)-1] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	res.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	// The forced collections are the benchmark's own.
	res.gcCycles = int(ms1.NumGC - gc0)
	if !opt.raw {
		res.gcCycles -= len(res.opWall) + 1
	}
	return res, w, nil
}

// endToEnd is the three metrics a run reports with tracing off.
func (r *runResult) endToEnd() []metric {
	return []metric{
		{"wall_s", median(r.wall), "s"},
		{"alloc_mb", median(r.alloc) / 1e6, "MB"},
		{"setup_s", median(r.setups), "s"},
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}
