package job_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/job"
)

// chipProbe records the chip each run of the test-chip-probe workload was
// handed. A run checks that its chip came at power-on (memory word 0 is
// zero, no data-cache miss counted), dirties it, and then ends as its
// args say: "ok", "fill" (success after writing every page of memory),
// "error" or "panic". With "gate" set, it waits on the
// gate first, so that a test holds several runs in flight at once.
var chipProbe struct {
	mu    sync.Mutex
	chips map[string]*core.Chip
	dirty []string
	gate  chan struct{}
	in    chan struct{}
}

type probeArgs struct {
	ID   string `json:"id"`
	End  string `json:"end"`
	Gate bool   `json:"gate,omitempty"`
}

func init() {
	chipProbe.chips = map[string]*core.Chip{}
	job.Register(job.Workload{
		Name: "test-chip-probe",
		Canon: func(raw json.RawMessage) (json.RawMessage, error) {
			var a probeArgs
			if err := json.Unmarshal(raw, &a); err != nil {
				return nil, err
			}
			return json.Marshal(a)
		},
		Run: func(ctx *job.RunContext) (*job.Result, error) {
			var a probeArgs
			if err := json.Unmarshal(ctx.Spec.Args, &a); err != nil {
				return nil, err
			}
			if a.Gate {
				chipProbe.in <- struct{}{}
				<-chipProbe.gate
			}
			c := ctx.Chip
			chipProbe.mu.Lock()
			chipProbe.chips[a.ID] = c
			if v, _ := c.Mem.Read32(0); v != 0 || c.Data.Caches[0].Misses != 0 {
				chipProbe.dirty = append(chipProbe.dirty, a.ID)
			}
			chipProbe.mu.Unlock()
			if err := c.Mem.Write32(0, 0xdead); err != nil {
				return nil, err
			}
			c.Data.Load(0, 0, 8, 0)
			switch a.End {
			case "fill":
				for addr := uint32(0); addr < c.Mem.Size(); addr += 1 << 14 {
					if err := c.Mem.Write32(addr, 1); err != nil {
						return nil, err
					}
				}
			case "error":
				return nil, fmt.Errorf("run %s failed", a.ID)
			case "panic":
				panic("run " + a.ID + " panicked")
			}
			return &job.Result{Cycles: 1}, nil
		},
	})
}

// probe runs one test-chip-probe spec on r and returns the chip it got.
func probe(t *testing.T, r *job.Runner, id, end string, cfg *arch.Config) *core.Chip {
	t.Helper()
	args, _ := json.Marshal(probeArgs{ID: id, End: end})
	_, err := r.Run(&job.Spec{Workload: "test-chip-probe", Args: args, Config: cfg})
	if (err == nil) != (end == "ok" || end == "fill") {
		t.Fatalf("run %s (%s): error %v", id, end, err)
	}
	chipProbe.mu.Lock()
	defer chipProbe.mu.Unlock()
	return chipProbe.chips[id]
}

// A run's chip goes back to the Runner's idle list only when the run
// succeeds: the next run of its configuration gets it, at power-on. A run
// that errors or panics drops its chip. The list keeps a chip of each
// shape, so a run of another shape builds its own and the next default
// run gets the default chip back.
func TestFailedRunNeverReturnsItsChip(t *testing.T) {
	r := job.NewRunner()
	a := probe(t, r, "a", "ok", nil)
	if got := probe(t, r, "b", "ok", nil); got != a {
		t.Error("a successful run's chip was not reused")
	}
	if got := probe(t, r, "c", "error", nil); got != a {
		t.Error("the idle chip was not handed to the next run")
	}
	b := probe(t, r, "d", "ok", nil)
	if b == a {
		t.Error("a failed run's chip came back")
	}
	if got := probe(t, r, "e", "panic", nil); got != b {
		t.Error("the idle chip was not handed to the next run")
	}
	c := probe(t, r, "f", "ok", nil)
	if c == b {
		t.Error("a panicked run's chip came back")
	}

	other := arch.Default()
	other.MemBanks = 8
	d := probe(t, r, "g", "ok", &other)
	if d == c || d.Cfg != other {
		t.Errorf("a run of another shape got chip %p (config %+v)", d, d.Cfg)
	}
	if got := probe(t, r, "h", "ok", nil); got != c || got.Cfg != arch.Default() {
		t.Errorf("after a run of another shape a default run got chip %p (config %+v), not the default chip", got, got.Cfg)
	}
	if got := probe(t, r, "i", "ok", &other); got != d {
		t.Error("the chip of the other shape was not kept beside the default one")
	}
	chipProbe.mu.Lock()
	defer chipProbe.mu.Unlock()
	if len(chipProbe.dirty) > 0 {
		t.Errorf("runs %v were handed a chip not at power-on", chipProbe.dirty)
	}
}

// A chip serves every fault configuration of its shape: a run of another
// configuration that differs only in failed banks and disabled quads gets
// the idle chip, reset to that configuration (at power-on, with exactly
// its faults applied), and so does the run after it that goes back.
func TestFaultConfigurationsShareAChip(t *testing.T) {
	r := job.NewRunner()
	a := probe(t, r, "fault-a", "ok", nil)
	faulty := arch.Default()
	faulty.FailedBanks, faulty.DisabledQuads = 3, 2
	if got := probe(t, r, "fault-b", "ok", &faulty); got != a {
		t.Fatal("a run of a fault configuration of the same shape built a new chip")
	}
	if a.Cfg != faulty || a.Mem.LiveBanks() != faulty.MemBanks-3 || !a.QuadDisabled(1) || a.QuadDisabled(2) {
		t.Errorf("the chip was not reset to the fault configuration: config %+v, %d live banks", a.Cfg, a.Mem.LiveBanks())
	}
	if got := probe(t, r, "fault-c", "ok", nil); got != a {
		t.Fatal("the run after it built a new chip")
	}
	if a.Cfg != arch.Default() || a.Mem.LiveBanks() != faulty.MemBanks || a.QuadDisabled(0) {
		t.Errorf("the chip was not reset back to the default configuration: config %+v", a.Cfg)
	}
	chipProbe.mu.Lock()
	defer chipProbe.mu.Unlock()
	for _, id := range chipProbe.dirty {
		if strings.HasPrefix(id, "fault-") {
			t.Errorf("run %s was handed a chip not at power-on", id)
		}
	}
}

// A chip that has backed more memory than the idle list keeps is dropped
// after a successful run too: a 16 MB memory written in every page is
// more than a full 8 MB one.
func TestOversizedChipIsNotKept(t *testing.T) {
	r := job.NewRunner()
	big := arch.Default()
	big.MemBanks = 32
	a := probe(t, r, "big-a", "ok", &big)
	if got := probe(t, r, "big-b", "fill", &big); got != a {
		t.Fatal("the idle chip was not handed to the next run")
	}
	if got := probe(t, r, "big-c", "ok", &big); got == a {
		t.Error("a chip with 16 MB of backed memory came back")
	}
	full := probe(t, r, "full-a", "fill", nil)
	if got := probe(t, r, "full-b", "ok", nil); got != full {
		t.Error("a chip with its whole 8 MB memory backed was not kept")
	}
	// External memory counts as well; a chip that has some but holds none
	// of it is kept.
	off := arch.Default()
	off.OffChipBytes = 1 << 20
	o := probe(t, r, "off-a", "ok", &off)
	if got := probe(t, r, "off-b", "ok", &off); got != o {
		t.Error("a chip with external memory was not kept")
	}
}

// Runs in flight at once never share a chip, and the chips they return
// are kept for the runs after them: a second round of as many runs at once
// takes the first round's chips, one each, and builds none.
func TestConcurrentRunsNeverShareAChip(t *testing.T) {
	const n = 3
	r := job.NewRunner()
	round := func(name string) map[*core.Chip]bool {
		chipProbe.gate, chipProbe.in = make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				args, _ := json.Marshal(probeArgs{ID: fmt.Sprint(name, i), End: "ok", Gate: true})
				if _, err := r.Run(&job.Spec{Workload: "test-chip-probe", Args: args}); err != nil {
					t.Error(err)
				}
			}()
		}
		for i := 0; i < n; i++ {
			<-chipProbe.in
		}
		close(chipProbe.gate)
		wg.Wait()
		held := map[*core.Chip]bool{}
		chipProbe.mu.Lock()
		defer chipProbe.mu.Unlock()
		for i := 0; i < n; i++ {
			held[chipProbe.chips[fmt.Sprint(name, i)]] = true
		}
		if len(held) != n {
			t.Fatalf("%s: %d runs in flight held %d distinct chips", name, n, len(held))
		}
		return held
	}
	first, second := round("first"), round("second")
	for c := range second {
		if !first[c] {
			t.Error("a run of the second round built a new chip")
		}
	}
}
