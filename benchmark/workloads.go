package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cyclops/experiments"
	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
	"cyclops/internal/splash"
	"cyclops/internal/stream"
)

// fingerprint is what one op produced, as named values. A key's value
// must be the same on every op of a run; the keys golden.json pins must
// also equal the pinned values.
type fingerprint map[string]string

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the inputs from the seed and runs one untimed warm-up
	// op, whose fingerprint it returns. tracer is nil on the untraced pass.
	setup(seed uint64, tracer *obs.Tracer) (fingerprint, error)
	// op runs operation i under span sp (nil when untraced) and returns
	// what it produced. An error is a failed op.
	op(i int, sp *obs.ActiveSpan) (fingerprint, error)
	// period is the number of consecutive ops that make one repeating
	// unit of work; wall_s and alloc_mb are reported per period.
	period() int
	close()
}

// sizes scales every workload; quick is the smoke-test sizing.
type sizes struct {
	name         string
	aluIters1t   int // loop iterations of alu_1t
	aluIters126t int // loop iterations per thread of alu_126t
	localReps    int // Reps of triad_local
	oocPerThread int // elements per thread of triad_ooc
	fftN         int
	fftThreads   int
	sweepSlots   []sweepSlot
	serveMisses  int // never-seen specs per round
	serveDups    int // specs posted by both clients at once per round
	serveHits    int // repeats of earlier specs per round
}

var fullSizes = sizes{
	name:         "full",
	aluIters1t:   2_500_000,
	aluIters126t: 2_500,
	localReps:    8,
	oocPerThread: 400,
	fftN:         16384,
	fftThreads:   64,
	sweepSlots: []sweepSlot{
		{"fig6a", []string{"fig6a"}},
		{"fault", []string{"fault"}},
		{"splash", []string{"fig3", "fig7a", "fig7b"}},
		{"stream1t_apps", []string{"fig4a", "apps"}},
		{"fig5d", []string{"fig5d"}},
		{"tables", []string{"table1", "table2", "fig6b", "microbarrier", "breakdown", "profile", "matrix", "mesh"}},
	},
	serveMisses: 12,
	serveDups:   4,
	serveHits:   200,
}

var quickSizes = sizes{
	name:         "quick",
	aluIters1t:   20_000,
	aluIters126t: 50,
	localReps:    1,
	oocPerThread: 16,
	fftN:         256,
	fftThreads:   16,
	sweepSlots: []sweepSlot{
		{"splash", []string{"fig7a"}},
		{"tables", []string{"table1", "table2", "fig6b", "microbarrier", "mesh"}},
	},
	serveMisses: 3,
	serveDups:   1,
	serveHits:   10,
}

// workloadNames is the BENCHMARK.json order.
var workloadNames = []string{"alu_1t", "alu_126t", "triad_local", "triad_ooc", "fft_perf", "paper_sweep", "serve_mix"}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "alu_1t":
		return &simWorkload{alu: true, threads: 1, iters: sz.aluIters1t}, nil
	case "alu_126t":
		return &simWorkload{alu: true, threads: 126, iters: sz.aluIters126t}, nil
	case "triad_local":
		return &simWorkload{triad: stream.Params{Kernel: stream.Triad, Threads: 126, N: 126 * 80,
			Local: true, Unroll: 4, Reps: sz.localReps}}, nil
	case "triad_ooc":
		return &simWorkload{triad: stream.Params{Kernel: stream.Triad, Threads: 126, N: 126 * sz.oocPerThread,
			Unroll: 1, Reps: 2}}, nil
	case "fft_perf":
		return &fftWorkload{n: sz.fftN, threads: sz.fftThreads}, nil
	case "paper_sweep":
		return &sweepWorkload{slots: sz.sweepSlots}, nil
	case "serve_mix":
		return &serveWorkload{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// --- alu_1t, alu_126t, triad_local, triad_ooc: the instruction-level simulator

// simWorkload is one guest program run from source to halt on a fresh
// chip: stream.Generate (triad) → asm.Assemble → core.NewChip →
// Kernel.Boot → Kernel.Run, each under its own span.
type simWorkload struct {
	alu     bool
	threads int
	iters   int
	triad   stream.Params

	seedA, seedB uint32
	engine       sim.Engine
}

// aluSource is the BENCH_sim.json dispatch loop, run by every thread on
// its own registers: no data memory until the final two stores. Thread
// index i starts from (seedA+i, seedB) so the results are seed-dependent
// while the instruction and cycle counts are not.
func aluSource(threads, iters int, seedA, seedB uint32) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "_start:\n")
	if threads > 1 {
		fmt.Fprintf(&sb, "\tli   r8, 1\n\tli   r9, %d\n", threads)
		fmt.Fprintf(&sb, "spawn:\tli   a0, 3\n\tla   a1, thread\n\tmov  a2, r8\n\tsyscall\n")
		fmt.Fprintf(&sb, "\taddi r8, r8, 1\n\tblt  r8, r9, spawn\n")
	}
	fmt.Fprintf(&sb, "\tli   a0, 0\n")
	fmt.Fprintf(&sb, "thread:\tmov  r20, a0\n")
	fmt.Fprintf(&sb, "\tli   r9, %d\n\tadd  r9, r9, r20\n\tli   r10, %d\n", int32(seedA), int32(seedB))
	fmt.Fprintf(&sb, "\tli   r8, %d\n", iters)
	fmt.Fprintf(&sb, "loop:\taddi r8, r8, -1\n\tadd  r9, r9, r8\n\txor  r10, r9, r8\n\tbne  r8, r0, loop\n")
	fmt.Fprintf(&sb, "\tla   r11, out\n\tslli r12, r20, 3\n\tadd  r11, r11, r12\n")
	fmt.Fprintf(&sb, "\tsw   r9, 0(r11)\n\tsw   r10, 4(r11)\n")
	fmt.Fprintf(&sb, "\tli   a0, 0\n\tsyscall\n")
	fmt.Fprintf(&sb, "\t.align 8\nout:\t.space %d\n", 8*threads)
	return sb.String()
}

// aluExpect computes thread i's final (r9, r10) natively.
func aluExpect(i, iters int, seedA, seedB uint32) (uint32, uint32) {
	r9, r10 := seedA+uint32(i), seedB
	for r8 := uint32(iters); r8 != 0; {
		r8--
		r9 += r8
		r10 = r9 ^ r8
	}
	return r9, r10
}

func (w *simWorkload) setup(seed uint64, _ *obs.Tracer) (fingerprint, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	w.seedA, w.seedB = rng.Uint32(), rng.Uint32()
	w.engine = sim.EngineBlock
	return w.op(0, nil)
}

func (w *simWorkload) period() int { return 1 }
func (w *simWorkload) close()      {}

// simRun is what one guest run leaves behind, beyond its fingerprint.
type simRun struct {
	cycles, insts, compiles uint64
	run, stall              uint64
	snapshot                string
}

func (w *simWorkload) op(_ int, sp *obs.ActiveSpan) (fingerprint, error) {
	fp, _, err := w.run(sp)
	return fp, err
}

func (w *simWorkload) run(sp *obs.ActiveSpan) (fingerprint, *simRun, error) {
	var src string
	if w.alu {
		src = aluSource(w.threads, w.iters, w.seedA, w.seedB)
	} else {
		p := w.triad
		c := sp.Child("stream.generate")
		var err error
		src, err = stream.Generate(p)
		c.End()
		if err != nil {
			return nil, nil, err
		}
	}
	c := sp.Child("asm.assemble")
	prog, err := asm.Assemble(src)
	c.End()
	if err != nil {
		return nil, nil, err
	}
	c = sp.Child("core.new_chip")
	chip, err := core.NewChip(arch.Default())
	c.End()
	if err != nil {
		return nil, nil, err
	}
	k := kernel.New(chip)
	m := k.Machine()
	m.SetEngine(w.engine)
	m.MaxCycles = 500_000_000
	c = sp.Child("kernel.boot")
	err = k.Boot(prog)
	c.End()
	if err != nil {
		return nil, nil, err
	}
	c = sp.Child("sim.run")
	err = k.Run()
	c.End()
	if err != nil {
		return nil, nil, err
	}

	snap := m.Snapshot()
	js, err := json.Marshal(snap)
	if err != nil {
		return nil, nil, err
	}
	compiles, _ := m.BlockStats()
	r := &simRun{cycles: m.Cycle(), insts: m.TotalInsts(), compiles: compiles,
		run: snap.Run, stall: snap.Stall, snapshot: sha(js)}
	fp := fingerprint{
		"cycles": strconv.FormatUint(r.cycles, 10),
		"insts":  strconv.FormatUint(r.insts, 10),
	}
	if w.alu {
		out := prog.Symbols["out"]
		for i := 0; i < w.threads; i++ {
			g9, err := chip.Mem.Read32(out + uint32(8*i))
			if err != nil {
				return nil, nil, err
			}
			g10, err := chip.Mem.Read32(out + uint32(8*i+4))
			if err != nil {
				return nil, nil, err
			}
			if w9, w10 := aluExpect(i, w.iters, w.seedA, w.seedB); g9 != w9 || g10 != w10 {
				return nil, nil, fmt.Errorf("thread %d left r9=%#x r10=%#x, native loop gives %#x %#x", i, g9, g10, w9, w10)
			}
		}
		return fp, r, nil
	}
	// The main thread stamped the cycle SPR between barriers; the best
	// repetition is STREAM's reported time.
	times := prog.Symbols["times"]
	var best, prev uint64
	for i := 0; i <= w.triad.Reps; i++ {
		v, err := chip.Mem.Read32(times + uint32(4*i))
		if err != nil {
			return nil, nil, err
		}
		if d := uint64(v) - prev; i > 0 && (best == 0 || d < best) {
			best = d
		}
		prev = uint64(v)
	}
	fp["best_cycles"] = strconv.FormatUint(best, 10)
	return fp, r, nil
}

// gbps is the STREAM-convention bandwidth of the best repetition.
func (w *simWorkload) gbps(bestCycles uint64) float64 {
	bytes := float64(w.triad.N * w.triad.Kernel.BytesPerElement())
	return bytes / float64(bestCycles) * arch.ClockHz / 1e9
}

// productPath runs the triad point through stream.Run, the call the
// harness and the job layer make, so the spans above cannot drift from
// what the product does.
func (w *simWorkload) productPath() (fingerprint, error) {
	p := w.triad
	p.Engine = &w.engine
	r, err := stream.Run(p, kernel.Sequential)
	if err != nil {
		return nil, err
	}
	return fingerprint{
		"insts":       strconv.FormatUint(r.Insts, 10),
		"best_cycles": strconv.FormatUint(r.BestCycles, 10),
	}, nil
}

// --- fft_perf: the direct-execution runtime

// fftWorkload is splash.RunFFT on a seeded signal; ops alternate
// hardware and software barriers, so one period is a Figure 7 pair.
type fftWorkload struct {
	n, threads int
	signal     []complex128
	energy     float64
}

func (w *fftWorkload) setup(seed uint64, _ *obs.Tracer) (fingerprint, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	w.signal = make([]complex128, w.n)
	w.energy = 0
	for i := range w.signal {
		re, im := rng.Float64()-0.5, rng.Float64()-0.5
		w.signal[i] = complex(re, im)
		w.energy += re*re + im*im
	}
	return w.op(0, nil)
}

func (w *fftWorkload) period() int { return 2 }
func (w *fftWorkload) close()      {}

func barrierOf(i int) splash.BarrierKind {
	if i%2 == 1 {
		return splash.SW
	}
	return splash.HW
}

func (w *fftWorkload) op(i int, sp *obs.ActiveSpan) (fingerprint, error) {
	kind := barrierOf(i)
	data := append([]complex128(nil), w.signal...)
	c := sp.Child("perf.fft_" + kind.String())
	r, err := splash.RunFFT(splash.FFTOpts{Config: splash.Config{Threads: w.threads, Barrier: kind}, N: w.n, Data: data})
	c.End()
	if err != nil {
		return nil, err
	}
	// Parseval: an unnormalised transform multiplies the energy by N, a
	// normalised one preserves it.
	var e float64
	for _, v := range data {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if ratio := e / w.energy; math.Abs(ratio-float64(w.n)) > 1e-6*float64(w.n) && math.Abs(ratio-1) > 1e-6 {
		return nil, fmt.Errorf("fft (%s barriers): output energy is %.6g times the input's, want %d or 1", kind, ratio, w.n)
	}
	return fingerprint{
		kind.String() + ".cycles": strconv.FormatUint(r.Cycles, 10),
		kind.String() + ".run":    strconv.FormatUint(r.Run, 10),
		kind.String() + ".stall":  strconv.FormatUint(r.Stall, 10),
	}, nil
}

// --- paper_sweep: the figure harness

// sweepSlot is one op of the sweep: the experiments it runs, under the
// name of its span and of its harness.<name>_s metric.
type sweepSlot struct {
	name string
	ids  []string
}

func (s sweepSlot) span() string { return "harness." + s.name }

// sweepWorkload regenerates the paper's tables through the uncached
// harness runner, one slot of experiments per op; a period is one pass
// over every slot. The seed rotates which slot comes first.
type sweepWorkload struct {
	slots       []sweepSlot
	first       int
	prevWorkers int
}

func (w *sweepWorkload) setup(seed uint64, tracer *obs.Tracer) (fingerprint, error) {
	w.prevWorkers = sweep.Workers()
	sweep.SetWorkers(1)
	harness.Runner.Tracer = tracer
	// Warm up on the last slot, whichever slot the seed puts first, so
	// that set-up costs the same under every seed.
	w.first = 0
	fp, err := w.op(len(w.slots)-1, nil)
	w.first = int(seed % uint64(len(w.slots)))
	return fp, err
}

func (w *sweepWorkload) period() int { return len(w.slots) }

func (w *sweepWorkload) close() {
	sweep.SetWorkers(w.prevWorkers)
	harness.Runner.Tracer = nil
}

func (w *sweepWorkload) slot(i int) int { return (w.first + i) % len(w.slots) }

func (w *sweepWorkload) op(i int, sp *obs.ActiveSpan) (fingerprint, error) {
	slot := w.slots[w.slot(i)]
	c := sp.Child(slot.span())
	defer c.End()
	fp := fingerprint{}
	for _, id := range slot.ids {
		tab, err := experiments.Run(id, experiments.Small)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		if len(tab.Rows) == 0 {
			return nil, fmt.Errorf("%s: empty table", id)
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		fp[id+".sha256"] = sha([]byte(sb.String()))
	}
	return fp, nil
}
