package sim

import (
	"cyclops/internal/arch"
	"cyclops/internal/isa"
	"cyclops/internal/timing"
)

// The block-compiling engine. The legacy engine pays a fetch, a decode
// and a trip through the big issue switch per instruction; for long-lived
// loops that dispatch is the dominant host-side cost. This engine discovers
// basic blocks at runtime (block boundaries are isa.EndsBlock, the same
// definition internal/vet's CFG uses for leaders), translates each block
// once into a slice of pre-bound Go closures — threaded code — and runs
// closure after closure, block after block, without returning to the
// scheduler, for as long as the thread unit is provably the only one
// due.
//
// Which ops have bodies. Fully specialized closures — one indirect call
// per instruction, everything else straight-line — exist for the
// single-cycle integer ALU ops and lui, the six conditional branches, jal
// and jalr, lw/ld/sw/sd, fadd/fmul/fma into a legal non-zero pair, mfspr
// of the cycle and barrier SPRs and mtspr of the barrier SPR: everything
// stream.Generate and the hardware barrier execute. Every other
// instruction (mul, div, syscall, atomics, sub-word memory, the other FP
// ops and SPRs, and every encoding whose trap is decided by its operand
// fields) compiles to the generic closure, which calls Machine.issue —
// the legacy engine's core — and counts the attempt in GenericStats.
//
// Timing stays exact by construction, not by approximation:
//
//   - Every closure drives the shared timing.Ledger exactly as the
//     legacy per-issue engine does (ChargeRun, WaitReady, ChargeMemStall,
//     ObserveAccess), so every table, snapshot and profile is
//     byte-identical across engines.
//   - Ops are 1:1 with instructions — a block never commits more than
//     the per-issue engine would. Each issue attempt replicates one
//     scheduler iteration: inline continuation advances m.cycle, bumps
//     the round-robin counter and ticks the timeline exactly as a trip
//     through runBlock's outer loop would, and is only taken when the event
//     queue proves no other unit is due first.
//   - Multi-unit batches fall back to one issue per unit per cycle, the
//     legacy engine's exact regime, so contention, tie order and
//     compaction are untouched.
//   - There is one dispatch path: stepBlock calls the instruction's
//     closure whether or not a tracer, profiler sampler or timeline is
//     attached. The one thing an observer changes is spin parking
//     (park.go): a unit whose attempts a Trace buffer or sampler records
//     one by one is never parked, and both sides are held to the legacy
//     oracle.
//   - A unit spinning on an unchanged barrier register leaves the event
//     queue (park.go) and is replayed exactly when the register, the text
//     or the run's end could show the difference.
//
// Compiled blocks sit behind mem.WatchCode's code-generation counter,
// checked before any op that follows a possible memory write, so
// self-modifying stores, DMA reloads and program reloads flush them
// before a stale op can issue (see decode.go).

// opFn executes one issue attempt at cycle; the closure performs the
// instruction's scoreboard wait, charges, effects and PC advance. A true
// return is a promise that the attempt cannot have written memory, so
// stepBlock may skip re-reading the code generation before the next op.
// False promises nothing: stores and generic ops must report it, and the
// bodies also report it for stalls, traps and taken branches, where the
// re-read is merely redundant.
type opFn func(m *Machine, tu *TU, cycle uint64) bool

// simBlock is one compiled basic block covering text [base, end), one op
// per instruction.
type simBlock struct {
	base, end uint32
	ops       []opFn
	// spin is the head PC of the block's spin loop (park.go), noSpin when it
	// has none; regs are the registers the loop names, its nw written ones
	// first.
	spin uint32
	nw   int
	regs []uint8
}

// maxBlockOps caps a block when no isa.EndsBlock instruction shows up
// (straight-line code running into data); continuation past the cap just
// enters the next block.
const maxBlockOps = 256

// runBlock is the block engine's scheduler, and the one event-driven
// loop: a timing wheel over the units' next issue cycles (sched.go)
// replaces the legacy per-cycle scan of the whole active list, so cost
// scales with units actually issuing rather than units merely alive. Tie
// order is the legacy rotating round-robin over active-list positions,
// which popBatch emits directly. A batch of one — the steady state of any
// single-thread phase — lifts the issue limit so stepBlock runs whole
// blocks inline; multi-unit batches issue exactly one instruction per
// unit, preserving contention and tie order bit-for-bit.
func (m *Machine) runBlock() error {
	m.setInlineMax() // no unit is parked between runs
	for len(m.active) > 0 && m.trap == nil {
		// Advance to the earliest pending issue cycle, first booking the
		// iterations at cycles where only parked units are due.
		next := m.eq.minAt
		if m.parked > 0 {
			var err error
			if next, err = m.skipPhantoms(next); err != nil {
				return err
			}
		}
		m.repeatAt = noEvent
		if next == m.cycle {
			m.repeatAt = next
		}
		m.cycle = next
		if m.MaxCycles > 0 && m.cycle > m.MaxCycles {
			return m.cycleLimit()
		}
		if m.parked > 0 && m.TL != nil && m.TL.Due(m.cycle) {
			m.wake(m.cycle, nil, wakeTick)
		}
		m.tickTimeline()
		// Take every unit due this cycle, in round-robin order. Units
		// started by a syscall during the batch land in the queue at the
		// current cycle and form their own batch next iteration, exactly
		// as the legacy engine's captured-length loop behaves.
		m.rr++
		m.iterN = len(m.active)
		m.batch = m.eq.popBatch(m.batch, m.active, m.rr%m.iterN)
		limit := m.cycle
		if len(m.batch) == 1 {
			// A lone ready unit may run unboundedly inline: every issue
			// policy's timing flows entirely through ledger charges and
			// resume times.
			limit = ^uint64(0)
		}
		anyHalted := false
		for bi := 0; bi < len(m.batch); bi++ {
			tu := m.batch[bi]
			m.stepBlock(tu, limit)
			if tu.State != Running {
				anyHalted = true
			} else if !tu.parked {
				m.eq.push(tu)
			}
			if len(m.joiners) > 0 {
				// Woken units issue in this batch, one attempt each.
				m.join(bi)
				limit = m.cycle
			}
			if m.trap != nil {
				if m.parked > 0 {
					m.wake(m.cycle, tu, wakeTrap)
				}
				// Requeue the units this batch never reached.
				for _, rest := range m.batch[bi+1:] {
					m.eq.push(rest)
				}
				break
			}
		}
		if anyHalted {
			m.compact()
		}
	}
	m.finishTimeline()
	return m.trap
}

// stepBlock issues instructions for tu starting at the current cycle and
// continues inline — op after op, block after block — while the issue
// limit and the event queue allow it. limit is the first cycle the unit
// may NOT issue at inline (the batch cycle itself when other units
// issued this cycle; unbounded when the unit is alone).
func (m *Machine) stepBlock(tu *TU, limit uint64) {
	memory := m.mem
	tl := m.TL
	blk := tu.blk
	// Entry from the scheduler may follow another unit's store into text.
	if g := memory.CodeGen(); g != m.codeGen {
		m.codeGen = g
		m.flushBlocks()
		blk = nil
	}
	// head: the next attempt is at a spin loop's head (park.go), reached
	// from the scheduler, a block entry or a branch, and may park the unit.
	head := blk != nil && tu.PC == blk.spin
	for {
		pc := tu.PC
		if tu.Samp != nil {
			tu.Samp.SetPC(pc)
		}
		if tu.pib.contains(pc) {
			if blk == nil || pc-blk.base >= blk.end-blk.base {
				blk = m.blockFor(pc)
				tu.blk = blk
				tu.spinFails, tu.spinSkip = 0, 0
				head = pc == blk.spin
			}
			if head && m.tryPark(tu, blk) {
				return
			}
			head = false
			// A false return (opFn's contract) may follow a store into
			// text: flush before the next op can run stale code, and first
			// replay the parked units, which must not run on past the store
			// with it either. It is also how a taken branch reports.
			if !blk.ops[(pc-blk.base)>>2](m, tu, m.cycle) {
				if g := memory.CodeGen(); g != m.codeGen {
					if m.parked > 0 {
						m.wake(m.cycle, tu, wakeCode)
					}
					m.codeGen = g
					m.flushBlocks()
					blk = nil
				} else {
					head = tu.PC == blk.spin
				}
			}
			if m.trap != nil || tu.State != Running {
				return
			}
		} else {
			m.fetchPIB(tu, m.cycle) // a refill only reads memory
		}
		// Inline continuation: replicate one trip through the scheduler's
		// outer loop, legal only when this unit is provably the next (and
		// only) one due. Every attempt above advanced nextAt past the
		// cycle it issued at, so each inline step is exactly one
		// scheduler iteration: same cycle advance, same round-robin
		// increment, same timeline tick.
		next := tu.nextAt
		if next >= limit {
			return
		}
		if m.eq.minAt <= next {
			return
		}
		if next > m.inlineMax {
			if m.MaxCycles > 0 && next > m.MaxCycles {
				// The outer loop raises the identical cycle-limit error.
				return
			}
			// Units are parked.
			if tl != nil {
				return // the outer loop ticks the timeline at phantom cycles
			}
			m.bookPhantoms(m.cycle+1, next)
		}
		m.cycle = next
		m.rr++
		if tl != nil {
			m.tickTimeline()
		}
	}
}

// blockFor returns (compiling on demand) the block whose base is pc.
// Mid-block jump targets simply compile an overlapping suffix block —
// the ops are position-independent, so the duplication is memory, not
// semantics.
func (m *Machine) blockFor(pc uint32) *simBlock {
	if b := m.blocks[pc]; b != nil {
		return b
	}
	b := m.compileBlock(pc)
	if m.blocks == nil {
		m.blocks = make(map[uint32]*simBlock)
	}
	m.blocks[pc] = b
	return b
}

// compileBlock translates the straight-line run starting at base into
// ops, stopping after the first isa.EndsBlock instruction, at the first
// unfetchable or illegal word (compiled to a trap op that fires only if
// execution reaches it), or at the op cap.
func (m *Machine) compileBlock(base uint32) *simBlock {
	m.blockCompiles++
	b := &simBlock{base: base}
	var code [maxBlockOps]isa.Inst
	pc := base
	for len(b.ops) < maxBlockOps {
		in, word, err := m.decodeAt(pc)
		code[len(b.ops)] = in
		if in.Op == isa.OpInvalid {
			b.ops = append(b.ops, trapOp(pc, word, err))
			break
		}
		b.ops = append(b.ops, m.compileOp(pc, in, word))
		if isa.EndsBlock(in) {
			break
		}
		pc += 4
	}
	b.end = base + uint32(4*len(b.ops))
	b.spin, b.regs, b.nw = spinShape(base, code[:len(b.ops)])
	return b
}

// trapOp reproduces the legacy fetch path's trap lazily: compilation
// runs ahead of execution, so an illegal word only traps if the program
// actually reaches it.
func trapOp(pc, word uint32, err error) opFn {
	return func(m *Machine, tu *TU, cycle uint64) bool {
		if err != nil {
			m.Trap("sim: thread %d: fetch at %#x: %v", tu.ID, pc, err)
		} else {
			m.Trap("sim: thread %d: illegal instruction %#08x at %#x", tu.ID, word, pc)
		}
		return false
	}
}

// compileOp translates one instruction into its closure: a fully
// specialized form for the hot ALU/branch/memory ops, or a generic op
// that calls the shared issue path — semantically identical to the
// legacy engine by construction.
func (m *Machine) compileOp(pc uint32, in isa.Inst, word uint32) opFn {
	info := isa.InfoRef(in.Op)
	lat := &m.Chip.Cfg.Latencies
	if fn := compileALU(pc, in, word); fn != nil {
		return fn
	}
	if fn := compileBranch(pc, in, word, uint64(lat.BranchExec)); fn != nil {
		return fn
	}
	switch in.Op {
	case isa.OpJAL:
		return mkJAL(pc, word, in.A, pc+4+uint32(in.Imm)*4, uint64(lat.BranchExec))
	case isa.OpJALR:
		return mkJALR(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.BranchExec))
	case isa.OpLW:
		return mkLW(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpLD:
		return mkLD(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpSW:
		return mkSW(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpSD:
		return mkSD(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpFADD, isa.OpFMUL, isa.OpFMA:
		// A destination that is not a legal non-zero pair traps after its
		// charges; that arm stays with the generic closure.
		if FRegOK(in.A) && in.A != 0 {
			return mkFP(pc, word, in, info, lat)
		}
	case isa.OpMFSPR:
		if in.Imm == isa.SPRCycle || in.Imm == isa.SPRBarrier {
			return mkMFSPR(pc, word, in.A, in.Imm)
		}
	case isa.OpMTSPR:
		if in.Imm == isa.SPRBarrier {
			return mkMTSPRBarrier(pc, word, in.A)
		}
	}
	return func(m *Machine, tu *TU, cycle uint64) bool {
		m.generic[in.Op]++
		m.issuing = tu // the writer of a syscall's WriteBarrier
		m.issue(tu, in, info, word, cycle)
		if m.parked > 0 && m.bar.Read() != m.park.byte {
			m.Trap("sim: thread %d: barrier register written around Machine.WriteBarrier at %#x", tu.ID, pc)
		}
		return false
	}
}

// compileALU builds the complete closure for a single-cycle integer op
// (the ClassOther ALU set: register, immediate and lui forms), nil for
// anything else. Multiplies, divides, SPR moves, sync and syscall are
// not simple — they have latencies, traps or side effects — and stay on
// the generic path. Each closure is deliberately self-contained
// straight-line code: the dispatch pays exactly one indirect call per
// instruction. The bodies all follow the issue path's shape — scoreboard
// wait, Insts++, optional trace record, effect at cyc+1, ChargeRun(1),
// nextAt, PC — so each commits byte-identical ledger state.
func compileALU(pc uint32, in isa.Inst, word uint32) opFn {
	a, b, c := in.A, in.B, in.C
	imm := in.Imm
	uimm := uint32(in.Imm)
	sh := uimm & 31
	switch in.Op {
	case isa.OpADD:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)+tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSUB:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)-tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpAND:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)&tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpOR:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)|tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpXOR:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)^tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpNOR:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, ^(tu.reg(b) | tu.reg(c)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLL:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)<<(tu.reg(c)&31), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSRL:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)>>(tu.reg(c)&31), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSRA:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uint32(int32(tu.reg(b))>>(tu.reg(c)&31)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLT:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(int32(tu.reg(b)) < int32(tu.reg(c))), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLTU:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(tu.reg(b) < tu.reg(c)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpADDI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)+uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpANDI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)&uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpORI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)|uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpXORI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)^uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLLI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)<<sh, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSRLI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)>>sh, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSRAI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uint32(int32(tu.reg(b))>>sh), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLTI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(int32(tu.reg(b)) < imm), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpSLTIU:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(tu.reg(b) < uimm), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	case isa.OpLUI:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			tu.Insts++ // FmtU: no sources, never waits
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uimm<<13, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
			return true
		}
	}
	return nil
}

// compileBranch builds the complete closure for a conditional branch,
// nil for any other op.
func compileBranch(pc uint32, in isa.Inst, word uint32, be uint64) opFn {
	ra, rb := in.A, in.B
	target := pc + 4 + uint32(in.Imm)*4
	switch in.Op {
	case isa.OpBEQ:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) == tu.reg(rb) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	case isa.OpBNE:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) != tu.reg(rb) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	case isa.OpBLT:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if int32(tu.reg(ra)) < int32(tu.reg(rb)) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	case isa.OpBGE:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if int32(tu.reg(ra)) >= int32(tu.reg(rb)) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	case isa.OpBLTU:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) < tu.reg(rb) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	case isa.OpBGEU:
		return func(m *Machine, tu *TU, cyc uint64) bool {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return false
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) >= tu.reg(rb) {
				tu.PC = target
				return false
			}
			tu.PC = pc + 4
			return true
		}
	}
	return nil
}

// The mk* constructors are //go:noinline because each is small enough to
// inline into compileOp, and a closure built by an inlined constructor is
// compiled as a clone (compileOp.mkLD.func5) in which every one-line leaf
// (regReady, reg, setReg, ChargeRun, ObserveAccess, arch.Phys) stays a real
// call. Kept out of line, the closure they return is compiled on its own
// with those leaves inlined, as compileALU's and compileBranch's are
// (ci/inlinecheck.go holds the line).

//go:noinline
func mkJAL(pc, word uint32, a uint8, target uint32, be uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		tu.Insts++ // FmtJ: no sources, issues immediately
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		tu.setReg(a, pc+4, cyc+2)
		if tu.Samp != nil && a != isa.RZero {
			tu.Samp.Call(target)
		}
		tu.ChargeRun(be)
		tu.nextAt = cyc + be
		tu.PC = target
		return false
	}
}

//go:noinline
func mkJALR(pc, word uint32, a, b uint8, imm uint32, be uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		t := tu.reg(b) + imm
		tu.setReg(a, pc+4, cyc+2)
		if t%4 != 0 {
			m.Trap("sim: thread %d: jalr to unaligned %#x at %#x", tu.ID, t, pc)
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			return false
		}
		if tu.Samp != nil {
			if a != isa.RZero {
				tu.Samp.Call(t)
			} else {
				tu.Samp.Ret()
			}
		}
		tu.ChargeRun(be)
		tu.nextAt = cyc + be
		tu.PC = t
		return false
	}
}

//go:noinline
func mkLW(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%4 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 4, ea, pc)
			return false
		}
		v, err := m.mem.Read32(phys &^ 3)
		if err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return false
		}
		acc := m.Chip.Data.Load(cyc, ea, 4, tu.Quad)
		tu.setReg(a, v, acc.Done)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		// Loads free the thread at cyc+1; SettleAccess also applies the
		// policy's miss-switch penalty, same as the generic issue path.
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, cyc+1)
		tu.PC = pc + 4
		return true
	}
}

//go:noinline
func mkLD(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%8 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 8, ea, pc)
			return false
		}
		if !FRegOK(a) {
			m.Trap("sim: thread %d: ld destination r%d not a pair at %#x", tu.ID, a, pc)
			return false
		}
		v, err := m.mem.Read64(phys)
		if err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return false
		}
		acc := m.Chip.Data.Load(cyc, ea, 8, tu.Quad)
		tu.setReg(a, uint32(v), acc.Done)
		tu.setReg(a+1, uint32(v>>32), acc.Done)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, cyc+1)
		tu.PC = pc + 4
		return true
	}
}

//go:noinline
func mkSW(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := timing.MaxReady(tu.regReady(a), tu.regReady(b)); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%4 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 4, ea, pc)
			return false
		}
		if err := m.mem.Write32(phys, tu.reg(a)); err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return false
		}
		// A store into watched text bumps the code generation; reporting
		// false forces the dispatch loop to re-check it before the next
		// op, so a store can never execute stale compiled code — not
		// even in its own block.
		acc := m.Chip.Data.Store(cyc, ea, 4, tu.Quad)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, acc.Done)
		tu.PC = pc + 4
		return false
	}
}

//go:noinline
func mkSD(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := timing.MaxReady(timing.MaxReady(tu.regReady(a), tu.regReady(b)), tu.regReady(a+1)); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%8 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 8, ea, pc)
			return false
		}
		if err := m.mem.Write64(phys, uint64(tu.reg(a))|uint64(tu.reg(a+1))<<32); err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return false
		}
		// False for the same reason as sw: the store may have landed in
		// watched text.
		acc := m.Chip.Data.Store(cyc, ea, 8, tu.Quad)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, acc.Done)
		tu.PC = pc + 4
		return false
	}
}

// mkFP builds fadd, fmul or fma into the pair at in.A, which the caller
// has checked is a legal non-zero pair. The thread issues in one cycle and
// the quad's FPU pipe carries the rest, exactly as execFP: dispatch, the
// structural wait and its switch penalty, one run cycle, then the result
// at the pipe's completion time.
//
//go:noinline
func mkFP(pc, word uint32, in isa.Inst, info *isa.Info, lat *arch.LatencyTable) opFn {
	a, b, c, d := in.A, in.B, in.C, in.D
	op, pipe := in.Op, info.Pipe
	exec, total := lat.FPExec, uint64(lat.FPExec+lat.FPLatency)
	if op == isa.OpFMA {
		exec, total = lat.FMAExec, uint64(lat.FMAExec+lat.FMALatency)
	}
	return func(m *Machine, tu *TU, cyc uint64) bool {
		r := timing.MaxReady(
			timing.MaxReady(tu.regReady(b), tu.regReady(b+1)),
			timing.MaxReady(tu.regReady(c), tu.regReady(c+1)))
		if op == isa.OpFMA {
			r = timing.MaxReady(r, timing.MaxReady(tu.regReady(d), tu.regReady(d+1)))
		}
		if r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		start := m.Chip.FPUs[tu.Quad].Dispatch(cyc, pipe, exec)
		resume := tu.WaitFPU(cyc, start)
		tu.ChargeRun(1)
		tu.nextAt = resume + 1
		var f float64
		switch op {
		case isa.OpFADD:
			f = tu.freg(b) + tu.freg(c)
		case isa.OpFMUL:
			f = tu.freg(b) * tu.freg(c)
		case isa.OpFMA:
			f = tu.freg(b)*tu.freg(c) + tu.freg(d)
		}
		tu.setFReg(a, f, start+total)
		tu.PC = pc + 4
		return true
	}
}

// mkMFSPR reads the cycle counter's low word or the wired-OR barrier
// register (the barrier spin's load); the caller has checked spr is one of
// the two. m.cycle is the issue cycle on every path: the scheduler and
// inline continuation both move it before the op runs.
//
//go:noinline
func mkMFSPR(pc, word uint32, a uint8, spr int32) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		tu.Insts++ // mfspr has no sources, never waits
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		v := uint32(m.cycle)
		if spr == isa.SPRBarrier {
			v = uint32(m.bar.Read())
		}
		tu.setReg(a, v, cyc+1)
		tu.ChargeRun(1)
		tu.nextAt = cyc + 1
		tu.PC = pc + 4
		return true
	}
}

// mkMTSPRBarrier deposits the unit's contribution to the barrier register.
//
//go:noinline
func mkMTSPRBarrier(pc, word uint32, a uint8) opFn {
	return func(m *Machine, tu *TU, cyc uint64) bool {
		if r := tu.regReady(a); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return false
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		m.writeBarrier(tu, cyc, tu.ID, uint8(tu.reg(a)))
		tu.ChargeRun(1)
		tu.nextAt = cyc + 1
		tu.PC = pc + 4
		return true
	}
}
