package job_test

import (
	"bytes"
	"encoding/json"
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

func smallStreamSpec(t *testing.T, engine string) *job.Spec {
	t.Helper()
	spec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Copy, Threads: 2, N: 128, Local: true, Reps: 2,
	}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	spec.Engine = engine
	return spec
}

// The hit≡miss contract, per engine: the bytes a cold execution returns
// are the bytes the warm cache returns, and — the simulator's
// cross-engine contract — both engines produce them identically.
func TestHitMissByteIdenticalAcrossEngines(t *testing.T) {
	var ref []byte
	for _, e := range sim.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			r := job.NewRunner()
			r.Cache = resultcache.OpenMemory(0)
			spec := smallStreamSpec(t, e.String())

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
			if ref == nil {
				ref = cold
			} else if !bytes.Equal(ref, cold) {
				t.Fatalf("engine %s result bytes differ from the first engine's:\n%s\nvs\n%s", e, cold, ref)
			}
		})
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
		EngineNeutral: true,
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
		EngineNeutral: true,
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
