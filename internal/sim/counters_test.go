package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/obs"
)

// retrySys blocks the first few syscalls the way the kernel's join path
// does, so tests can provoke SleepIdle charges without booting a kernel.
type retrySys struct{ left int }

func (s *retrySys) Syscall(m *Machine, tu *TU) SysResult {
	if s.left > 0 {
		s.left--
		return SysResult{Cost: 8, Retry: true}
	}
	return SysResult{Cost: 1}
}

// reasonSrc provokes a charge under every stall reason a single thread
// can produce: fetch, scoreboard, FPU structural, and syscall sleep.
const reasonSrc = `
_start:	la   r8, data
	lw   r9, 0(r8)
	add  r10, r9, r9	; scoreboard stall on the load
	fdiv r20, r16, r18
	fdiv r24, r16, r18	; divide unit still busy: FPU stall
	syscall			; retried by the stub kernel: sleep
	halt
data:	.word 42
`

func runCounting(t *testing.T, src string, sys Syscaller) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, sys)
	m.MaxCycles = 1_000_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(2, p.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStallReasonsSumToLegacyTotal is the accounting contract: the tagged
// buckets must sum to the untagged StallCycles for every thread unit, and
// each provoked reason must actually land in its bucket.
func TestStallReasonsSumToLegacyTotal(t *testing.T) {
	m := runCounting(t, reasonSrc, &retrySys{left: 3})
	var want obs.Breakdown
	for _, tu := range m.TUs {
		if got := tu.Stalls.Total(); got != tu.Stall {
			t.Errorf("TU %d: reasons sum to %d, Stall = %d (%v)", tu.ID, got, tu.Stall, tu.Stalls)
		}
		want.AddAll(tu.Stalls)
	}
	if got := m.Totals().Stalls; got != want {
		t.Errorf("Totals().Stalls = %v, per-TU sum = %v", got, want)
	}
	b := m.Totals().Stalls
	for _, r := range []obs.StallReason{obs.DepStall, obs.FPUStall, obs.ICacheStall, obs.SleepIdle} {
		if b[r] == 0 {
			t.Errorf("%v: no cycles charged (breakdown %v)", r, b)
		}
	}
	if b[obs.BarrierStall] != 0 {
		t.Errorf("BarrierStall charged %d cycles with no barrier in the program", b[obs.BarrierStall])
	}
	if b[obs.SleepIdle] != 3*8 {
		t.Errorf("SleepIdle = %d cycles, want 3 retries x 8", b[obs.SleepIdle])
	}
}

// TestSnapshotDeterministicJSON renders the stats snapshot twice from two
// identical runs: the exported bytes must match exactly, and the
// aggregates must equal the per-thread sums.
func TestSnapshotDeterministicJSON(t *testing.T) {
	render := func() ([]byte, *Machine) {
		m := runCounting(t, reasonSrc, &retrySys{left: 3})
		var buf bytes.Buffer
		if err := m.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), m
	}
	a, m := render()
	b, _ := render()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n---\n%s", a, b)
	}
	s := m.Snapshot()
	var run, stall uint64
	for _, th := range s.Threads {
		run += th.Run
		stall += th.Stall
	}
	if s.Run != run || s.Stall != stall {
		t.Errorf("aggregates (%d, %d) do not match thread sums (%d, %d)", s.Run, s.Stall, run, stall)
	}
	if s.Stalls.Total() != s.Stall {
		t.Errorf("snapshot breakdown sums to %d, Stall = %d", s.Stalls.Total(), s.Stall)
	}
	if len(s.Resources) == 0 {
		t.Error("snapshot carries no resource telemetry")
	}
}

// TestChromeTraceSchema checks the exported trace against the Chrome
// trace-event format: a traceEvents array of thread-name metadata and
// complete ("X") slices with the required keys, identical across runs.
func TestChromeTraceSchema(t *testing.T) {
	render := func() []byte {
		p, err := asm.Assemble(reasonSrc)
		if err != nil {
			t.Fatal(err)
		}
		chip := core.MustNew(arch.Default())
		m := New(chip, &retrySys{left: 3})
		m.MaxCycles = 1_000_000
		m.Trace = NewTraceBuffer(1024)
		chip.LoadImage(p.Origin, p.Bytes)
		m.Start(2, p.Entry)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.ChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render()
	if b := render(); !bytes.Equal(a, b) {
		t.Fatal("trace output not deterministic across identical runs")
	}

	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var meta, slices, counters int
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Errorf("event %d: metadata name = %v", i, ev["name"])
			}
		case "X":
			slices++
			for _, key := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[key]; !ok {
					t.Errorf("event %d: complete event missing %q: %v", i, key, ev)
					break
				}
			}
			if dur, _ := ev["dur"].(float64); dur < 1 {
				t.Errorf("event %d: dur = %v, want >= 1", i, ev["dur"])
			}
		case "C":
			counters++
			if ev["name"] != "memwait" {
				t.Errorf("event %d: counter name = %v", i, ev["name"])
			}
			args, ok := ev["args"].(map[string]interface{})
			if !ok {
				t.Errorf("event %d: counter missing args: %v", i, ev)
				break
			}
			for _, kind := range obs.MemWaitNames() {
				if _, ok := args[kind].(float64); !ok {
					t.Errorf("event %d: counter series %q is not numeric: %v", i, kind, args[kind])
				}
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ph)
		}
	}
	if meta == 0 || slices == 0 {
		t.Errorf("trace has %d metadata and %d slice events, want both > 0", meta, slices)
	}
	// One memwait counter per traced unit when accounting is compiled in.
	if counters != meta {
		t.Errorf("trace has %d counter events for %d traced units", counters, meta)
	}
}

// TestChromeTraceRequiresBuffer pins the error path.
func TestChromeTraceRequiresBuffer(t *testing.T) {
	m := New(core.MustNew(arch.Default()), nil)
	if err := m.ChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("ChromeTrace with no buffer succeeded")
	}
}
