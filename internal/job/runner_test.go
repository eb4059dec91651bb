package job_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclops/internal/asm"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/image"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/resultcache"
	"cyclops/internal/sim"
	"cyclops/internal/stream"
)

func smallStreamSpec(t *testing.T) *job.Spec {
	t.Helper()
	spec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Copy, Threads: 2, N: 128, Local: true, Reps: 2,
	}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The hit≡miss contract, and why the engine is not part of the key: on
// the block engine the bytes a cold execution returns are the bytes the
// warm cache returns, and an uncached Runner on the legacy oracle
// (Runner.Engine) resolves the spec to the same key and produces the same
// bytes.
func TestHitMissByteIdenticalAcrossEngines(t *testing.T) {
	spec := smallStreamSpec(t)
	var (
		ref    []byte
		refKey resultcache.Key
	)
	t.Run("block", func(t *testing.T) {
		r := job.NewRunner()
		r.Cache = resultcache.OpenMemory(0)
		cold, info, err := r.RunEncodedTraced(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Fatal("cold run reported cached")
		}
		warm, info, err := r.RunEncodedTraced(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Cached {
			t.Fatal("warm run missed the cache")
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("hit differs from miss:\ncold %s\nwarm %s", cold, warm)
		}
		st := r.Stats()
		if st.Executions != 1 || st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v; want 1 execution, 1 hit, 1 miss", st)
		}
		if _, refKey, err = r.Resolve(spec); err != nil {
			t.Fatal(err)
		}
		ref = cold
	})
	t.Run("legacy", func(t *testing.T) {
		if ref == nil {
			t.Skip("no block-engine reference")
		}
		r := job.NewRunner()
		r.Engine = sim.EngineLegacy
		_, key, err := r.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if key != refKey {
			t.Fatalf("the engine override moved the key: %s, block %s", key, refKey)
		}
		got, _, err := r.RunEncodedTraced(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Executions != 1 {
			t.Fatalf("stats = %+v; want 1 execution", st)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("legacy engine bytes differ from the block engine's under one key:\n%s\nvs\n%s", got, ref)
		}
	})
}

// Cached is the one decode-checked read of the cache: it serves nothing
// without a cache or an entry, and nothing a run would not take as a hit.
// A run of a resolved spec treats an undecodable entry as a miss and
// replaces it; afterwards Cached serves the run's bytes.
func TestCachedServesOnlyDecodableEntries(t *testing.T) {
	r := job.NewRunner()
	res, err := r.ResolveTraced(smallStreamSpec(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cached(res.Key, nil); ok {
		t.Fatal("a Runner without a cache served a result")
	}
	r.Cache = resultcache.OpenMemory(0)
	if _, ok := r.Cached(res.Key, nil); ok {
		t.Fatal("an empty cache served a result")
	}
	if err := r.Cache.Put(res.Key, []byte(`{"cycles":"not a number"}`)); err != nil {
		t.Fatal(err)
	}
	if data, ok := r.Cached(res.Key, nil); ok {
		t.Fatalf("an undecodable entry was served: %s", data)
	}
	data, info, err := r.RunResolvedTraced(&res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached || r.Stats().Executions != 1 {
		t.Fatalf("info %+v, stats %+v; want the undecodable entry re-executed", info, r.Stats())
	}
	if got, ok := r.Cached(res.Key, nil); !ok || !bytes.Equal(got, data) {
		t.Fatalf("after the run Cached = %s, %t; want the run's bytes", got, ok)
	}
	if want := fmt.Sprintf("%x", res.Key[:]); res.ID != want {
		t.Errorf("Resolved.ID = %s; want %s", res.ID, want)
	}
}

// Runner.Engine is what a workload sees as RunContext.Engine: the one
// way a test reaches the legacy oracle through the job layer.
func TestRunnerEngineReachesTheWorkload(t *testing.T) {
	var seen []sim.Engine
	job.Register(job.Workload{
		Name: "test-engine",
		Canon: func(args json.RawMessage) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		},
		Run: func(ctx *job.RunContext) (*job.Result, error) {
			seen = append(seen, ctx.Engine)
			return &job.Result{}, nil
		},
	})
	spec := &job.Spec{Workload: "test-engine", Args: json.RawMessage(`{}`)}
	for _, e := range sim.Engines() {
		r := job.NewRunner()
		r.Engine = e
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	if want := sim.Engines(); fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("workload saw engines %v; want %v", seen, want)
	}
}

// A program waiting at a barrier nobody can release ends its run with an
// error even without a cycle limit, instead of holding the caller forever:
// the block engine reports the deadlock once its only unit is parked.
func TestProgramBarrierDeadlockReturns(t *testing.T) {
	prog, err := asm.Assemble(`
	li   r8, 1		; the kernel armed bit 0 for this thread; it never clears it
spin:	mfspr r9, 4
	and  r9, r9, r8
	bne  r9, r0, spin
	li   a0, 0
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	r := job.NewRunner()
	spec := &job.Spec{Workload: job.ProgramWorkload, Program: image.Encode(prog)}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sim: deadlock") {
			t.Fatalf("deadlocked program: %v, want a deadlock error", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("a deadlocked program held its caller for a minute")
	}
}

// A warm cache must answer a repeated sweep without a single simulator
// execution — the acceptance bar for the figure pipelines.
func TestWarmCacheZeroExecutions(t *testing.T) {
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	var specs []*job.Spec
	for _, k := range []stream.Kernel{stream.Copy, stream.Scale} {
		for _, threads := range []int{1, 2} {
			spec, err := workloads.StreamSpec(stream.Params{
				Kernel: k, Threads: threads, N: 64 * threads, Reps: 2,
			}, kernel.Sequential)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
	}
	cold, err := sweep.Map(specs, r.Run)
	if err != nil {
		t.Fatal(err)
	}
	execs := r.Stats().Executions
	if execs != uint64(len(specs)) {
		t.Fatalf("cold sweep ran %d executions for %d specs", execs, len(specs))
	}
	warm, err := sweep.Map(specs, r.Run)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Executions; got != execs {
		t.Fatalf("warm sweep executed the simulator %d times; want 0", got-execs)
	}
	for i := range specs {
		ce, err := job.EncodeResult(cold[i])
		if err != nil {
			t.Fatal(err)
		}
		we, err := job.EncodeResult(warm[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ce, we) {
			t.Fatalf("spec %d: warm result differs from cold:\n%s\nvs\n%s", i, we, ce)
		}
	}
}

// gate is a registerable workload whose single execution blocks until
// released, so a test can pile up concurrent duplicates behind it. The
// Run panics on re-entry: coalescing failures fail loudly.
type gate struct {
	started chan struct{}
	release chan struct{}
	runs    int
	mu      sync.Mutex
}

func registerGate(t *testing.T, name string) *gate {
	t.Helper()
	g := &gate{started: make(chan struct{}), release: make(chan struct{})}
	job.Register(job.Workload{
		Name: name,
		Canon: func(args json.RawMessage) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		},
		Run: func(ctx *job.RunContext) (*job.Result, error) {
			g.mu.Lock()
			g.runs++
			runs := g.runs
			g.mu.Unlock()
			if runs == 1 {
				close(g.started)
				<-g.release
			}
			return &job.Result{Cycles: 42}, nil
		},
	})
	return g
}

// Concurrent submissions of one spec must coalesce to one execution;
// run under -race this also exercises the singleflight paths for data
// races.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	g := registerGate(t, "test-gate-coalesce")
	r := job.NewRunner()
	spec := &job.Spec{Workload: "test-gate-coalesce", Args: json.RawMessage(`{}`)}

	const waiters = 8
	results := make(chan *job.Result, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			res, err := r.Run(spec)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}
	<-g.started
	// Wait until every other submission has joined the in-flight call,
	// then let the one execution finish.
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Coalesced < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d duplicates coalesced", r.Stats().Coalesced, waiters-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case res := <-results:
			if res.Cycles != 42 {
				t.Fatalf("result cycles = %d; want 42", res.Cycles)
			}
		}
	}
	st := r.Stats()
	if st.Executions != 1 {
		t.Fatalf("%d executions for %d concurrent duplicates; want 1", st.Executions, waiters)
	}
	if st.Coalesced != waiters-1 {
		t.Fatalf("coalesced = %d; want %d", st.Coalesced, waiters-1)
	}
}

// An execution error must propagate to every coalesced waiter and must
// not be cached.
func TestErrorsPropagateAndAreNotCached(t *testing.T) {
	fail := true
	job.Register(job.Workload{
		Name: "test-gate-error",
		Canon: func(args json.RawMessage) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		},
		Run: func(ctx *job.RunContext) (*job.Result, error) {
			if fail {
				return nil, fmt.Errorf("deterministic guest trap")
			}
			return &job.Result{Cycles: 7}, nil
		},
	})
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	spec := &job.Spec{Workload: "test-gate-error", Args: json.RawMessage(`{}`)}
	if _, err := r.Run(spec); err == nil {
		t.Fatal("failing workload returned no error")
	}
	if st := r.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d; want 1", st.Errors)
	}
	// The failure was not cached: flipping the workload healthy, the
	// same spec re-executes and succeeds.
	fail = false
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 7 {
		t.Fatalf("cycles = %d; want 7", res.Cycles)
	}
	if st := r.Stats(); st.Executions != 2 {
		t.Fatalf("executions = %d; want 2 (the failure must not be served from cache)", st.Executions)
	}
}

// A workload panic is a run error wrapping job.ErrPanic: the Runner
// recovers it, drops the in-flight entry and caches nothing, so the same
// spec executes again. The message carries the panic's value and stack;
// the *job.PanicError's Summary names the value only.
func TestWorkloadPanicIsRunError(t *testing.T) {
	if _, ok := job.LookupWorkload("test-gate-panic"); !ok {
		job.Register(job.Workload{
			Name: "test-gate-panic",
			Canon: func(args json.RawMessage) (json.RawMessage, error) {
				return json.RawMessage(`{}`), nil
			},
			Run: func(ctx *job.RunContext) (*job.Result, error) {
				var eas []uint32
				return &job.Result{Cycles: uint64(eas[3])}, nil // index out of range
			},
		})
	}
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	spec := &job.Spec{Workload: "test-gate-panic", Args: json.RawMessage(`{}`)}
	for i := 0; i < 2; i++ {
		_, err := r.Run(spec)
		if !errors.Is(err, job.ErrPanic) {
			t.Fatalf("run %d: %v, want ErrPanic", i, err)
		}
		summary := "workload panicked: runtime error: index out of range [3] with length 0"
		if want := "job: test-gate-panic: " + summary + "\n\ngoroutine "; !strings.HasPrefix(err.Error(), want) ||
			!strings.Contains(err.Error(), "TestWorkloadPanicIsRunError") {
			t.Errorf("error %q, want %q and the panicking stack", err, want)
		}
		var pe *job.PanicError
		if !errors.As(err, &pe) || pe.Summary() != summary {
			t.Errorf("run %d: no *job.PanicError summarised %q in %v", i, summary, err)
		}
	}
	if st := r.Stats(); st.Executions != 2 || st.Errors != 2 || r.Inflight() != 0 {
		t.Errorf("stats %+v, %d in flight; want 2 executions, 2 errors, none in flight", st, r.Inflight())
	}
}
