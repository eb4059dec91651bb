package job

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/image"
	"cyclops/internal/sim"
)

// A result's console output survives the next run on the same pooled chip
// and kernel: the kernel's reset drops its output instead of truncating it,
// so the next program's output cannot overwrite the bytes a result took.
// The second program sits at the first's PCs, so a compiled block the
// machine's reset kept would print the first's number again.
func TestResultOutputSurvivesTheNextRun(t *testing.T) {
	prog := func(src string) *Spec {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return &Spec{Workload: ProgramWorkload, Program: image.Encode(p)}
	}
	first := prog("\tli a0, 2\n\tli a1, 12345\n\tsyscall\n\tli a0, 0\n\tsyscall\n")
	second := prog("\tli a0, 2\n\tli a1, 9\n\tsyscall\n\tli a0, 0\n\tsyscall\n")
	var p chipPool
	run := func(spec *Spec) (*Result, *pooledChip) {
		pc, err := p.get(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := runProgram(&RunContext{Spec: spec, Chip: pc.chip, pooled: pc})
		p.put(pc, err == nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, pc
	}
	a, pa := run(first)
	b, pb := run(second)
	if pa != pb || pa.kern == nil {
		t.Fatal("the second run did not get the first run's chip and kernel")
	}
	if string(a.Output) != "12345" || string(b.Output) != "9" {
		t.Errorf("outputs %q and %q, want \"12345\" and \"9\"", a.Output, b.Output)
	}
}

// A chip of the run's shape that cannot be reset to its configuration (an
// invalid one, which a resolved spec never is) is not handed out, and the
// run holds no place in the list.
func TestPoolRefusesAnInvalidConfiguration(t *testing.T) {
	var p chipPool
	pc, err := p.get(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	p.put(pc, true)
	bad := arch.Default()
	bad.FailedBanks = bad.MemBanks
	if _, err := p.get(bad); err == nil {
		t.Fatal("a chip was reset to an invalid configuration")
	}
	if _, err := p.get(bad); err == nil {
		t.Fatal("a chip was built for an invalid configuration")
	}
	if p.running != 0 {
		t.Errorf("%d runs still counted in flight", p.running)
	}
}

// budgetRun is the last run of the test-pool-budget workload: the pooled
// chip it was handed and whether that chip was at power-on.
var budgetRun struct {
	pc      *pooledChip
	powerOn bool
}

// budgetArgs makes a test-pool-budget run write Pages pages of memory and
// build Units thread units of its kernel's machine.
type budgetArgs struct {
	ID, Pages, Units int
}

func init() {
	Register(Workload{
		Name:  "test-pool-budget",
		Canon: func(raw json.RawMessage) (json.RawMessage, error) { return raw, nil },
		Run: func(ctx *RunContext) (*Result, error) {
			var a budgetArgs
			if err := json.Unmarshal(ctx.Spec.Args, &a); err != nil {
				return nil, err
			}
			c, m := ctx.Chip, ctx.Kernel().Machine()
			budgetRun.pc = ctx.pooled
			budgetRun.powerOn = c.Mem.BackedBytes() == 0 && c.Data.Caches[0].Misses == 0 && m.Cycle() == 0
			for tid := range a.Units {
				tu := m.Unit(tid)
				budgetRun.powerOn = budgetRun.powerOn && tu.State == sim.Idle && tu.Regs[5] == 0
				tu.Regs[5] = 1
			}
			for page := range a.Pages {
				if err := c.Mem.Write32(uint32(page)<<14, 1); err != nil {
					return nil, err
				}
			}
			c.Data.Load(0, 0, 8, 0)
			return &Result{Cycles: 1}, nil
		},
	})
}

// The idle list keeps a chip of each shape until the bytes its chips hold
// would pass keepBytes per run in flight; then the chips idle longest go,
// whatever their shape, until it fits. A one-worker Runner walks through
// 64 shapes (latency variants) and back to recent ones, each run writing
// 0.25-3.25 MB of pages and one an 8 MB chip that pushes every other chip
// out, and the list is held after every run to a model of that rule: the
// same chips in the same order, inside the budget, one idle chip a shape.
// Every run is handed a chip at power-on.
func TestIdleListStaysInsideItsBudget(t *testing.T) {
	r := NewRunner()
	p := &r.chips
	var model []*pooledChip // least recently returned first
	held := func(pcs []*pooledChip) (n int) {
		for _, pc := range pcs {
			n += pc.chip.HeldBytes() + pc.kern.Machine().BuiltUnits()*unitBytes
		}
		return n
	}
	var runs, reused, dropped int
	run := func(shape, pages int) {
		t.Helper()
		cfg := arch.Default()
		cfg.Latencies.LocalMissLatency += shape
		args, _ := json.Marshal(budgetArgs{ID: runs, Pages: pages, Units: 1 + runs%8})
		if _, err := r.Run(&Spec{Workload: "test-pool-budget", Args: args, Config: &cfg}); err != nil {
			t.Fatal(err)
		}
		runs++
		if !budgetRun.powerOn {
			t.Errorf("run %d (shape %d) was handed a chip not at power-on", runs, shape)
		}
		pc := budgetRun.pc
		if i := slices.Index(model, pc); i >= 0 {
			model = slices.Delete(model, i, i+1)
			reused++
		}
		model = append(model, pc)
		for held(model) > keepBytes {
			model = model[1:]
			dropped++
		}
		if !slices.Equal(p.idle, model) {
			t.Fatalf("after run %d (shape %d) the idle list is not the most recently returned chips that fit", runs, shape)
		}
		if p.held != held(model) || p.held > p.peak*keepBytes {
			t.Fatalf("after run %d the idle list counts %d B and holds %d B, budget %d B", runs, p.held, held(model), p.peak*keepBytes)
		}
		for i, a := range p.idle {
			for _, b := range p.idle[i+1:] {
				if core.SameShape(a.chip.Cfg, b.chip.Cfg) {
					t.Fatalf("after run %d two idle chips share a shape", runs)
				}
			}
		}
	}
	for shape := range 64 {
		run(shape, 16+48*(shape%5))
		if shape%4 == 3 {
			run(shape-1, 16)
		}
		if shape == 40 {
			run(100, 512)
		}
	}
	if p.peak != 1 || reused == 0 || dropped == 0 || int(r.Stats().ChipsBuilt) != runs-reused {
		t.Errorf("peak %d, %d runs, %d reused a chip, %d chips dropped, %d built", p.peak, runs, reused, dropped, r.Stats().ChipsBuilt)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("idle list: %d chips counted at %d B; heap in use after a GC: %d B", len(p.idle), p.held, ms.HeapInuse)
}

// A shape never has more idle chips than runs were ever in flight at once:
// a chip is built only when none of its shape is idle.
func TestIdleChipsOfAShapeNeverOutnumberPeak(t *testing.T) {
	var p chipPool
	other := arch.Default()
	other.MemBanks = 8
	for i := range 20 {
		cfg := arch.Default()
		if i%2 == 1 {
			cfg = other
		}
		var pcs []*pooledChip
		for range 1 + i%3 {
			pc, err := p.get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pcs = append(pcs, pc)
		}
		for _, pc := range pcs {
			p.put(pc, true)
		}
		for _, a := range p.idle {
			n := 0
			for _, b := range p.idle {
				if core.SameShape(a.chip.Cfg, b.chip.Cfg) {
					n++
				}
			}
			if n > p.peak {
				t.Fatalf("round %d: %d idle chips of one shape, %d runs ever in flight", i, n, p.peak)
			}
		}
	}
	if got := p.built.Load(); got != 6 {
		t.Errorf("built %d chips, want 3 of each shape", got)
	}
}
