package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/timing"
)

// The differential harness: the same program runs to completion on both
// engines — under the same issue policy and latency model — and
// everything observable: the run error, the statistics snapshot, and
// each unit's final PC, state and register file, must match
// byte-for-byte. The legacy interpreter is the oracle; the block engine
// must be indistinguishable from it.

// diffScenario is one (issue policy, latency model) point a differential
// case runs under.
type diffScenario struct {
	pol Policy
	lat timing.LatencyModel
}

func (s diffScenario) String() string {
	return s.pol.String() + "@" + s.lat.String()
}

// diffDefault is the seed behavior: fine-grained issue at Table 2.
func diffDefault() diffScenario {
	return diffScenario{pol: timing.FineGrain{}, lat: timing.DefaultLatencies()}
}

// diffLatencies are the latency points differential cases draw from:
// Table 2, slow misses, slow FPU, and a fast-hit/slow-burst point.
func diffLatencies() []timing.LatencyModel {
	pts := make([]timing.LatencyModel, 4)
	for i := range pts {
		pts[i] = timing.DefaultLatencies()
	}
	pts[1].LocalMiss, pts[1].RemoteMiss = 48, 72
	pts[2].FPU, pts[2].FMA = 10, 18
	pts[3].Load, pts[3].Burst = 3, 24
	return pts
}

// scenarioFor derives a scenario from two draws in [0, 255]: the policy
// family and penalty from polDraw, the latency point from latDraw. Both
// the seeded corpus and the fuzzer route through this, so every engine
// comparison exercises a deterministic (policy, latency) pair.
func scenarioFor(polDraw, latDraw int) diffScenario {
	pen := uint64(polDraw>>2)%16 + 1
	var pol Policy
	switch polDraw % 3 {
	case 0:
		pol = timing.FineGrain{}
	case 1:
		pol = timing.Blocked{Pen: pen}
	case 2:
		pol = timing.SwitchOnMiss{Pen: pen}
	}
	lats := diffLatencies()
	return diffScenario{pol: pol, lat: lats[latDraw%len(lats)]}
}

// diffBoot assembles src and loads it on a fresh machine for engine e
// under scenario sc with a tight cycle budget (random programs may loop
// forever; the identical cycle-limit error is then part of the compared
// state). Every unit in tids is started at the entry point; none means
// unit 2 alone.
func diffBoot(src string, e Engine, sc diffScenario, tids ...int) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	chip := core.MustNew(sc.lat.Apply(arch.Default()))
	m := New(chip, nil)
	m.SetEngine(e)
	m.SetPolicy(sc.pol)
	m.MaxCycles = 50_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, err
	}
	if len(tids) == 0 {
		tids = []int{2}
	}
	for _, tid := range tids {
		if err := m.Start(tid, p.Entry); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// diffRun boots src as diffBoot does and runs it to completion.
func diffRun(src string, e Engine, sc diffScenario, tids ...int) (*Machine, error) {
	m, err := diffBoot(src, e, sc, tids...)
	if err != nil {
		return nil, err
	}
	return m, m.Run()
}

// diffMemBytes is how much of low memory diffState compares: the text and
// data of every differential program, and everything their raw-address
// stores can reach.
const diffMemBytes = 64 << 10

// diffState flattens a finished machine into a comparable string: run
// error, deterministic snapshot, per-unit architectural state, what the
// scheduler and the scoreboard hold (rr, every started unit's next issue
// cycle and register ready times), the timeline, and the contents of low
// memory.
func diffState(m *Machine, err error) string {
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "err=%v\n", err)
	}
	if m == nil {
		return sb.String()
	}
	if serr := m.Snapshot().WriteJSON(&sb); serr != nil {
		fmt.Fprintf(&sb, "snapshot-error=%v\n", serr)
	}
	for tid := range m.Chip.Cfg.Threads {
		tu := m.Unit(tid)
		if tu.State == Idle && tu.Insts == 0 {
			continue
		}
		fmt.Fprintf(&sb, "tu%d state=%d pc=%#x insts=%d regs=%v\n",
			tu.ID, tu.State, tu.PC, tu.Insts, tu.Regs)
	}
	fmt.Fprintf(&sb, "cycle=%d rr=%d\n", m.cycle, m.rr)
	for tid := range m.Chip.Cfg.Threads {
		tu := m.Unit(tid)
		if tu.State != Idle {
			fmt.Fprintf(&sb, "tu%d next=%d ready=%v\n", tu.ID, tu.nextAt, tu.ready)
		}
	}
	if m.TL != nil {
		if terr := m.TL.WriteCSV(&sb); terr != nil {
			fmt.Fprintf(&sb, "timeline-error=%v\n", terr)
		}
	}
	low := make([]byte, diffMemBytes)
	if merr := m.Chip.Mem.Read(0, low); merr != nil {
		fmt.Fprintf(&sb, "memory-error=%v\n", merr)
	}
	fmt.Fprintf(&sb, "mem[:%#x]=%x\n", len(low), sha256.Sum256(low))
	return sb.String()
}

// diffCompare runs src on both engines under scenario sc and fails the
// test when the block engine diverges from the legacy oracle. It returns
// the block-engine machine and its run error.
func diffCompare(t *testing.T, name, src string, sc diffScenario, tids ...int) (*Machine, error) {
	t.Helper()
	ref, refErr := diffRun(src, EngineLegacy, sc, tids...)
	want := diffState(ref, refErr)
	m, err := diffRun(src, EngineBlock, sc, tids...)
	if got := diffState(m, err); got != want {
		t.Fatalf("%s (%s): block engine diverges from legacy\nprogram:\n%s\n--- legacy ---\n%s--- block ---\n%s",
			name, sc, src, want, got)
	}
	return m, err
}

// randomProgram emits a short pseudo-random but valid program: ALU ops
// over r8..r15, conditional branches between real labels (mostly
// forward, so most programs terminate; the rest hit the cycle limit
// identically on every engine), loads and stores through a data window
// — and through small raw addresses, which smashes program text and
// exercises compiled-code invalidation — word and doubleword wide, reads
// of the cycle and barrier SPRs and writes of the barrier SPR, plus the
// occasional jal or kernel-less syscall trap.
func randomProgram(rng *rand.Rand) string {
	n := 5 + rng.Intn(36)
	nlabels := 1 + rng.Intn(4)
	labelAt := map[int]int{}
	for placed := 0; placed < nlabels; {
		p := rng.Intn(n)
		if _, dup := labelAt[p]; !dup {
			labelAt[p] = placed
			placed++
		}
	}
	reg := func() int { return 8 + rng.Intn(8) }
	var sb strings.Builder
	sb.WriteString("_start:\tla r16, data\n")
	for i := 0; i < n; i++ {
		if l, ok := labelAt[i]; ok {
			fmt.Fprintf(&sb, "L%d:", l)
		}
		switch rng.Intn(20) {
		case 0, 1, 2:
			ops := []string{"add", "sub", "and", "or", "xor", "nor", "slt", "sltu", "sll", "srl", "sra"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case 3, 4, 5:
			ops := []string{"addi", "andi", "ori", "xori", "slti"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(128)-64)
		case 6:
			fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n",
				[]string{"slli", "srli", "srai"}[rng.Intn(3)], reg(), reg(), rng.Intn(32))
		case 7:
			fmt.Fprintf(&sb, "\tlui r%d, %d\n", reg(), rng.Intn(1<<12))
		case 8:
			fmt.Fprintf(&sb, "\tmul r%d, r%d, r%d\n", reg(), reg(), reg())
		case 9, 10:
			fmt.Fprintf(&sb, "\tlw r%d, %d(r16)\n", reg(), 4*rng.Intn(16))
		case 11:
			fmt.Fprintf(&sb, "\tsw r%d, %d(r16)\n", reg(), 4*rng.Intn(16))
		case 12:
			// Store through a small raw address: usually lands in text.
			fmt.Fprintf(&sb, "\tsw r%d, %d(r0)\n", reg(), 4*rng.Intn(64))
		case 13, 14:
			ops := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, L%d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(nlabels))
		case 15:
			if rng.Intn(4) == 0 {
				sb.WriteString("\tsyscall\n") // no kernel: identical trap
			} else {
				fmt.Fprintf(&sb, "\tjal r%d, L%d\n", reg(), rng.Intn(nlabels))
			}
		case 16:
			fmt.Fprintf(&sb, "\tsd r%d, %d(r16)\n", reg(), 8*rng.Intn(8))
		case 17:
			// A doubleword through a small raw address: two text words.
			fmt.Fprintf(&sb, "\tsd r%d, %d(r0)\n", reg(), 8*rng.Intn(32))
		case 18:
			fmt.Fprintf(&sb, "\tmfspr r%d, %d\n", reg(), []int{isa.SPRCycle, isa.SPRBarrier}[rng.Intn(2)])
		case 19:
			fmt.Fprintf(&sb, "\tmtspr r%d, %d\n", reg(), isa.SPRBarrier)
		}
	}
	sb.WriteString("\thalt\n")
	sb.WriteString("\t.align 64\ndata:\t.space 64\n")
	return sb.String()
}

// TestEngineDifferential cross-checks the engines on a fixed corpus of
// pseudo-random short programs (seeded, so failures reproduce), each
// under a random (policy, latency) scenario drawn from the same stream.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for i := 0; i < 150; i++ {
		src := randomProgram(rng)
		sc := scenarioFor(rng.Intn(256), rng.Intn(256))
		diffCompare(t, fmt.Sprintf("program #%d", i), src, sc)
	}
}

// FuzzEngineDifferential drives the same oracle from raw instruction
// words: every byte pattern — legal or not — must behave identically on
// every engine, including trap messages and trap timing.
func FuzzEngineDifferential(f *testing.F) {
	seed := func(src string) []byte {
		p, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		return p.Bytes
	}
	f.Add(seed(`
_start:	li r8, 40
loop:	addi r8, r8, -1
	add r9, r9, r8
	xor r10, r9, r8
	bne r8, r0, loop
	halt
`))
	f.Add(seed(`
_start:	la r16, d
	lw r8, 0(r16)
	sw r8, 4(r16)
	halt
d:	.word 7
	.space 4
`))
	f.Add(seed(`
_start:	la r16, d
	ld d32, 0(r16)
	fadd d34, d32, d32
	fmul d36, d34, d32
	fma d38, d34, d36, d32
	sd d38, 8(r16)
	mtspr r32, 4
	mfspr r8, 4
	mfspr r9, 2
	sd r8, 16(r0)
	halt
	.align 8
d:	.double 1.5
	.space 8
`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 256 {
			t.Skip()
		}
		var sb strings.Builder
		sb.WriteString("_start:\n")
		for i := 0; i+4 <= len(data); i += 4 {
			fmt.Fprintf(&sb, "\t.word %d\n", binary.LittleEndian.Uint32(data[i:]))
		}
		sb.WriteString("\thalt\n")
		// The scenario derives from the input bytes, so the fuzzer also
		// explores the policy × latency plane and failures reproduce
		// from the corpus file alone.
		sc := scenarioFor(int(data[0]), int(data[len(data)-1]))
		diffCompare(t, "fuzz input", sb.String(), sc)
	})
}
