package stream

import (
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// Result reports one STREAM measurement.
type Result struct {
	Params Params
	// BestCycles is the fastest timed repetition (STREAM's best-of-N).
	BestCycles uint64
	// RepCycles holds every repetition's duration.
	RepCycles []uint64
	// TotalBytes is the STREAM-convention counted traffic per rep.
	TotalBytes int
	// Insts is the total instructions the run issued (all reps).
	Insts uint64
	// Totals is the Figure 7 cycle accounting summed over every thread
	// unit (workers plus the spawning main thread).
	timing.Totals
	// Profile and Timeline are the attached profiler outputs (nil
	// unless Params asked for them); Prog is the assembled program,
	// whose line table symbolizes the profile.
	Profile  *prof.Profile
	Timeline *prof.Timeline
	Prog     *asm.Program
}

// Bandwidth returns the aggregate best-rep bandwidth in bytes/second at
// the 500 MHz design clock.
func (r Result) Bandwidth() float64 {
	if r.BestCycles == 0 {
		return 0
	}
	return float64(r.TotalBytes) / float64(r.BestCycles) * arch.ClockHz
}

// GBps is Bandwidth in GB/s (decimal, as the paper plots).
func (r Result) GBps() float64 { return r.Bandwidth() / 1e9 }

// PerThreadMBps is the Figure 4 metric: average bandwidth per thread.
func (r Result) PerThreadMBps() float64 {
	return r.Bandwidth() / float64(r.Params.Threads) / 1e6
}

// Policy is re-exported so callers choose thread placement without
// importing kernel.
type Policy = kernel.Policy

// Run generates, assembles and executes one STREAM configuration on a
// fresh default chip and returns the measurement.
func Run(p Params, policy Policy) (*Result, error) {
	return RunOn(nil, p, policy)
}

// RunOn executes on the supplied chip (built fresh when nil), allowing
// design-space exploration with non-default configurations.
func RunOn(chip *core.Chip, p Params, policy Policy) (*Result, error) {
	if chip == nil {
		chip = core.MustNew(arch.Default())
	}
	return RunKernel(kernel.New(chip), p, policy)
}

// RunKernel executes on the chip of k, a kernel at power-on (kernel.New,
// or a reset one over a reset chip), selecting its policy, engine, issue
// policy and cycle limit from the arguments: the job layer runs each point
// on a kernel it keeps with its chip.
func RunKernel(k *kernel.Kernel, p Params, policy Policy) (*Result, error) {
	p.SetDefaults()
	src, err := Generate(p)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("stream: generated program does not assemble: %w", err)
	}
	chip := k.Machine().Chip
	if p.Threads > chip.Cfg.WorkerThreads() {
		return nil, fmt.Errorf("stream: %d threads exceed the %d usable workers", p.Threads, chip.Cfg.WorkerThreads())
	}
	k.Policy = policy
	// Both must precede Boot: the engine and the per-unit trigger tables
	// of the issue policy cannot change once threads are started.
	if p.Engine != nil {
		k.Machine().SetEngine(*p.Engine)
	}
	k.Machine().SetPolicy(p.Issue)
	k.Machine().MaxCycles = p.MaxCycles
	prog.File = "stream.s"
	var pr *prof.Profile
	var tl *prof.Timeline
	if p.ProfileEvery > 0 {
		pr = prof.New(p.ProfileEvery)
		k.Machine().AttachProfile(pr)
	}
	if p.TimelineEvery > 0 {
		tl = prof.NewTimeline(p.TimelineEvery)
		k.Machine().AttachTimeline(tl)
	}
	if err := k.Boot(prog); err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		return nil, err
	}

	times := prog.Symbols["times"]
	stamps := make([]uint64, p.Reps+1)
	for i := range stamps {
		v, err := chip.Mem.Read32(times + uint32(4*i))
		if err != nil {
			return nil, err
		}
		stamps[i] = uint64(v)
	}
	t := k.Machine().Totals()
	res := &Result{
		Params: p, Insts: k.Machine().TotalInsts(), Totals: t,
		Profile: pr, Timeline: tl, Prog: prog,
	}
	total := p.N
	if p.Independent {
		total = p.N * p.Threads
	}
	res.TotalBytes = total * p.Kernel.BytesPerElement()
	for i := 0; i < p.Reps; i++ {
		d := stamps[i+1] - stamps[i]
		res.RepCycles = append(res.RepCycles, d)
		if res.BestCycles == 0 || d < res.BestCycles {
			res.BestCycles = d
		}
	}
	return res, nil
}
