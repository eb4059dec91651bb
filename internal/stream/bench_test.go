package stream

import (
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
)

// The two Triads of the repository benchmark, as in-package benchmarks:
// each op is one guest run from source to halt on a fresh default chip
// (Generate, Assemble, NewChip, Boot, Run), the benchmark's triad_local and
// triad_ooc ops without its spans. Profile one with
//
//	go test -run '^$' -bench TriadLocal -cpuprofile cpu.out ./internal/stream
//
// Each fails unless the run lands on its pinned cycle and instruction
// counts, so a speed number is only ever read beside unchanged outputs.

func BenchmarkTriadLocal(b *testing.B) {
	benchTriad(b, Params{Kernel: Triad, Threads: 126, N: 126 * 80, Local: true, Unroll: 4, Reps: 8},
		15078, 753105)
}

func BenchmarkTriadOOC(b *testing.B) {
	benchTriad(b, Params{Kernel: Triad, Threads: 126, N: 126 * 400, Unroll: 1, Reps: 2},
		38840, 1102326)
}

func benchTriad(b *testing.B, p Params, cycles, insts uint64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := asm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		k := kernel.New(core.MustNew(arch.Default()))
		k.Machine().MaxCycles = DefaultMaxCycles
		if err := k.Boot(prog); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		m := k.Machine()
		if m.Cycle() != cycles || m.TotalInsts() != insts {
			b.Fatalf("%d cycles, %d instructions; pinned %d, %d", m.Cycle(), m.TotalInsts(), cycles, insts)
		}
	}
}
