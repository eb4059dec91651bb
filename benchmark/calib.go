package main

import "time"

// The host this benchmark runs on moves between speed plateaus that last
// seconds and differ by 30–60% (README, "Noise"): one shows in
// throughput-bound code, another in code full of indirect calls, a third
// in goroutine hand-offs, and none is under the benchmark's control.
// Every timed interval is therefore bracketed by a short reference
// workload with all three sensitivities, and reported in reference
// seconds: wall seconds times
// refNominal over the reference's duration next to it. A change to the
// repository cannot move the reference, so reference seconds compare two
// commits the way wall seconds would on a quiet host.

// refNominal is the reference's duration on this host's fastest plateau;
// it only fixes the unit.
const refNominal = 15 * time.Millisecond

// The three parts take about a third of the reference each.
const (
	refInterpSteps = 1_000_000
	refSpinIters   = 2_500_000
	refHandoffs    = 12_000
)

// refOp is one step of the reference interpreter: it mutates the
// registers or memory and returns the next program counter.
type refOp func(r *[16]uint32, mem []uint32) int

var (
	refProg []refOp
	refMem  = make([]uint32, 1<<16)
	refSink uint64
)

func init() {
	for i := 0; i < 256; i++ {
		refProg = append(refProg, refStep(i))
	}
	refProg[255] = func(r *[16]uint32, _ []uint32) int { r[0]++; return 0 }
}

func refStep(i int) refOp {
	a, b, c := i%16, (i*7+3)%16, (i*5+1)%16
	next := i + 1
	switch i % 6 {
	case 0:
		return func(r *[16]uint32, _ []uint32) int { r[a] = r[b] + r[c]; return next }
	case 1:
		return func(r *[16]uint32, _ []uint32) int { r[a] = r[b] ^ r[c]>>3; return next }
	case 2:
		return func(r *[16]uint32, m []uint32) int { r[a] = m[r[b]&0xffff]; return next }
	case 3:
		return func(r *[16]uint32, m []uint32) int { m[r[c]&0xffff] = r[a] + 1; return next }
	case 4:
		return func(r *[16]uint32, _ []uint32) int { r[a] = r[b]*2654435761 + 1; return next }
	}
	return func(r *[16]uint32, _ []uint32) int {
		if r[a]&1 == 0 {
			return next
		}
		return (next + 5) % 250
	}
}

// reference runs the fixed reference workload and returns how long it
// took: a closure-threaded interpreter (indirect calls, data-dependent
// branches, scattered loads and stores), six independent arithmetic
// chains (throughput-bound), and a ping-pong between two goroutines over
// unbuffered channels (the direct-execution runtime's hand-off).
func reference() time.Duration {
	t0 := time.Now()
	var regs [16]uint32
	for i := range regs {
		regs[i] = uint32(i * 77)
	}
	pc := 0
	for n := refInterpSteps; n > 0; n-- {
		pc = refProg[pc](&regs, refMem)
	}
	var a, b, c, d, e, f uint64 = 1, 2, 3, 4, 5, 6
	var tab [64]uint64
	for i := 0; i < refSpinIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*3935559000370003845 + 2691343689449507681
		c += c<<3 ^ a
		d ^= d>>7 + b
		e += tab[a&63]
		f ^= tab[b&63]
		tab[i&63] = c + d
	}
	refSink = a + b + c + d + e + f + uint64(regs[0]+regs[5])

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	return time.Since(t0)
}

// refSeconds converts a wall interval into reference seconds given the
// reference durations measured before and after it.
func refSeconds(wall, before, after time.Duration) float64 {
	ref := (before + after) / 2
	return wall.Seconds() * refNominal.Seconds() / ref.Seconds()
}
