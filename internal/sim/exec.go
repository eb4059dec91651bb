package sim

import (
	"math"

	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/isa"
	"cyclops/internal/obs"
	"cyclops/internal/timing"
)

// All stall charging is delegated to the embedded timing.Ledger
// (Charge, WaitReady, ChargeMemStall, ObserveAccess): the Table 2 charge
// rules have exactly one implementation, shared with internal/perf.

// reg reads a register; r0 is hardwired to zero.
func (tu *TU) reg(r uint8) uint32 {
	if r == isa.RZero || r >= isa.NumRegs {
		// r only exceeds the file via the +1 of a pair access based at
		// r63; reads clamp to zero, matching isa's RegMask metadata.
		return 0
	}
	return tu.Regs[r]
}

// setReg writes a register and records when its value becomes available.
func (tu *TU) setReg(r uint8, v uint32, ready uint64) {
	if r == isa.RZero || r >= isa.NumRegs {
		return
	}
	tu.Regs[r] = v
	tu.ready[r] = ready
}

// freg reads the double-precision value in pair (r, r+1); r must be even.
func (tu *TU) freg(r uint8) float64 {
	lo, hi := uint64(tu.reg(r)), uint64(tu.reg(r+1))
	return math.Float64frombits(hi<<32 | lo)
}

// setFReg writes a double into pair (r, r+1).
func (tu *TU) setFReg(r uint8, f float64, ready uint64) {
	bits := math.Float64bits(f)
	tu.setReg(r, uint32(bits), ready)
	tu.setReg(r+1, uint32(bits>>32), ready)
}

// regReady returns the cycle register r is available.
func (tu *TU) regReady(r uint8) uint64 {
	if r == isa.RZero || r >= isa.NumRegs {
		return 0
	}
	return tu.ready[r]
}

// sources returns the cycle at which all of in's source operands are ready.
func (tu *TU) sources(in isa.Inst, info *isa.Info) timing.ReadyTime {
	var t timing.ReadyTime
	pair := func(r uint8) {
		t = timing.MaxReady(t, tu.regReady(r))
		t = timing.MaxReady(t, tu.regReady(r+1))
	}
	switch info.Format {
	case isa.FmtR:
		switch {
		case info.Mem: // atomics: address B, value C, compare A (cas)
			t = timing.MaxReady(tu.regReady(in.B), tu.regReady(in.C))
			if in.Op == isa.OpAMOCAS {
				t = timing.MaxReady(t, tu.regReady(in.A))
			}
		case in.Op == isa.OpFCVTDW: // integer source
			t = tu.regReady(in.B)
		case info.Pipe != isa.PipeNone: // FP: pair sources
			pair(in.B)
			switch in.Op {
			case isa.OpFNEG, isa.OpFABS, isa.OpFMOV, isa.OpFSQRT, isa.OpFCVTWD:
			default:
				pair(in.C)
			}
		default:
			t = timing.MaxReady(tu.regReady(in.B), tu.regReady(in.C))
		}
	case isa.FmtR4:
		pair(in.B)
		pair(in.C)
		pair(in.D)
	case isa.FmtI:
		switch in.Op {
		case isa.OpMFSPR:
		case isa.OpMTSPR:
			t = tu.regReady(in.A)
		default:
			t = tu.regReady(in.B)
		}
	case isa.FmtS:
		t = timing.MaxReady(tu.regReady(in.A), tu.regReady(in.B))
		if info.Pair {
			t = timing.MaxReady(t, tu.regReady(in.A+1))
		}
	case isa.FmtB:
		t = timing.MaxReady(tu.regReady(in.A), tu.regReady(in.B))
	}
	return t
}

// memSize returns the access width of a memory instruction.
func memSize(op isa.Op) uint32 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLD, isa.OpSD:
		return 8
	default:
		return 4
	}
}

// step attempts to issue one instruction for tu at the current cycle: the
// legacy engine's per-issue fetch and decode.
func (m *Machine) step(tu *TU) {
	cycle := m.cycle
	if obs.Enabled && tu.Samp != nil {
		// Publish the PC before any charge so fetch stalls, dep stalls
		// and issue cycles all sample at the instruction they belong to.
		tu.Samp.SetPC(tu.PC)
	}

	// Instruction fetch through the PIB and the quad pair's I-cache.
	if !tu.pib.contains(tu.PC) {
		m.fetchPIB(tu, cycle)
		return
	}

	word, err := m.mem.Read32(tu.PC)
	if err != nil {
		m.Trap("sim: thread %d: fetch at %#x: %v", tu.ID, tu.PC, err)
		return
	}
	in := isa.Decode(word)
	if in.Op == isa.OpInvalid {
		m.Trap("sim: thread %d: illegal instruction %#08x at %#x", tu.ID, word, tu.PC)
		return
	}
	m.issue(tu, in, isa.InfoRef(in.Op), word, cycle)
}

// fetchPIB refills the thread's prefetch instruction buffer at tu.PC,
// charging the 2-cycle PIB latency plus any I-cache miss fill. An
// I-cache miss is a switch trigger for the blocked and switch-on-miss
// policies; the penalty is booked separately and extends the refill.
func (m *Machine) fetchPIB(tu *TU, cycle uint64) {
	tu.pib.base = tu.PC
	ic := m.Chip.ICaches[tu.icache]
	stall := uint64(2)
	var pen uint64
	if !ic.Fetch(tu.PC) {
		done := m.mem.FillLine(cycle, tu.PC&arch.PhysAddrMask)
		stall += done - cycle
		if pen = tu.Pol.OnIFetch; pen != 0 {
			tu.ChargeSwitch(pen)
		}
	}
	tu.Charge(obs.ICacheStall, stall)
	tu.nextAt = cycle + stall + pen
}

// issue executes one fetched instruction: the scoreboard wait, the
// per-class execution and charge rules, and the PC advance. It is the
// semantic core both engines share — the block compiler's generic
// ops call it directly, so any instruction without a specialized closure
// is equivalent by construction.
func (m *Machine) issue(tu *TU, in isa.Inst, info *isa.Info, word uint32, cycle uint64) {
	lat := &m.Chip.Cfg.Latencies
	// Scoreboard: in-order issue waits for source operands; the dep-stall
	// charge is the ledger's WaitReady rule.
	if ready := tu.sources(in, info); ready > cycle {
		tu.nextAt = tu.WaitReady(cycle, ready)
		return
	}

	tu.Insts++
	if m.Trace != nil {
		m.Trace.record(TraceEntry{Cycle: cycle, TID: tu.ID, PC: tu.PC, Word: word})
	}
	nextPC := tu.PC + 4

	switch info.Class {
	case isa.ClassOther:
		if !m.execSimple(tu, in, cycle) {
			return
		}
		if in.Op == isa.OpSYSCALL {
			if m.Kernel == nil {
				m.Trap("sim: thread %d: syscall with no kernel at %#x", tu.ID, tu.PC)
				return
			}
			res := m.Kernel.Syscall(m, tu)
			cost := res.Cost
			if cost == 0 {
				cost = 1
			}
			switch {
			case res.Halt:
				tu.ChargeRun(1)
				tu.nextAt = cycle + 1
				m.halt(tu)
				return
			case res.Retry:
				// The retried issue is a stall, not work: nothing is
				// charged as run, so the sampler never sees a charge
				// that would later need taking back.
				tu.Charge(obs.SleepIdle, cost)
				tu.Insts--
				tu.nextAt = cycle + cost
				return
			default:
				tu.ChargeRun(cost)
				tu.nextAt = cycle + cost
			}
		} else {
			tu.ChargeRun(1)
			tu.nextAt = cycle + 1
			if in.Op == isa.OpHALT {
				m.halt(tu)
				return
			}
		}

	case isa.ClassBranch:
		taken, target := m.execBranch(tu, in, cycle)
		tu.ChargeRun(uint64(lat.BranchExec))
		tu.nextAt = cycle + uint64(lat.BranchExec)
		if taken {
			nextPC = target
		}

	case isa.ClassIntMul:
		v := int32(tu.reg(in.B)) * int32(tu.reg(in.C))
		tu.setReg(in.A, uint32(v), cycle+uint64(lat.IntMulExec+lat.IntMulLatency))
		tu.ChargeRun(uint64(lat.IntMulExec))
		tu.nextAt = cycle + uint64(lat.IntMulExec)

	case isa.ClassIntDiv:
		b, c := tu.reg(in.B), tu.reg(in.C)
		if c == 0 {
			m.Trap("sim: thread %d: divide by zero at %#x", tu.ID, tu.PC)
			return
		}
		var v uint32
		if in.Op == isa.OpDIV {
			v = uint32(int32(b) / int32(c))
		} else {
			v = b / c
		}
		// The private divider blocks the thread for the whole execution.
		exec := uint64(lat.IntDivExec)
		tu.setReg(in.A, v, cycle+exec)
		tu.ChargeRun(exec)
		tu.nextAt = cycle + exec

	case isa.ClassFP, isa.ClassFPDiv, isa.ClassFPSqrt, isa.ClassFMA:
		m.execFP(tu, in, info, cycle)

	case isa.ClassMem:
		freeAt, acc, ok := m.execMem(tu, in, info, cycle)
		if !ok {
			return
		}
		tu.ObserveAccess(acc)
		tu.ChargeRun(uint64(lat.MemExec))
		// SettleAccess is the shared rule: the port/bank split for any
		// write backpressure past the issue cycle, then the policy's
		// per-access switch penalty (backpressure or cache miss).
		tu.nextAt = tu.SettleAccess(acc, cycle+uint64(lat.MemExec), freeAt)
	}

	if m.trap == nil && tu.State == Running {
		tu.PC = nextPC
	}
}

// execSimple covers ClassOther: integer ALU, immediates, SPR moves, sync.
// It returns false when a trap fired.
func (m *Machine) execSimple(tu *TU, in isa.Inst, cycle uint64) bool {
	done := cycle + 1
	b, c := tu.reg(in.B), tu.reg(in.C)
	switch in.Op {
	case isa.OpADD:
		tu.setReg(in.A, b+c, done)
	case isa.OpSUB:
		tu.setReg(in.A, b-c, done)
	case isa.OpAND:
		tu.setReg(in.A, b&c, done)
	case isa.OpOR:
		tu.setReg(in.A, b|c, done)
	case isa.OpXOR:
		tu.setReg(in.A, b^c, done)
	case isa.OpNOR:
		tu.setReg(in.A, ^(b | c), done)
	case isa.OpSLL:
		tu.setReg(in.A, b<<(c&31), done)
	case isa.OpSRL:
		tu.setReg(in.A, b>>(c&31), done)
	case isa.OpSRA:
		tu.setReg(in.A, uint32(int32(b)>>(c&31)), done)
	case isa.OpSLT:
		tu.setReg(in.A, boolBit(int32(b) < int32(c)), done)
	case isa.OpSLTU:
		tu.setReg(in.A, boolBit(b < c), done)

	case isa.OpADDI:
		tu.setReg(in.A, b+uint32(in.Imm), done)
	case isa.OpANDI:
		tu.setReg(in.A, b&uint32(in.Imm), done)
	case isa.OpORI:
		tu.setReg(in.A, b|uint32(in.Imm), done)
	case isa.OpXORI:
		tu.setReg(in.A, b^uint32(in.Imm), done)
	case isa.OpSLLI:
		tu.setReg(in.A, b<<(uint32(in.Imm)&31), done)
	case isa.OpSRLI:
		tu.setReg(in.A, b>>(uint32(in.Imm)&31), done)
	case isa.OpSRAI:
		tu.setReg(in.A, uint32(int32(b)>>(uint32(in.Imm)&31)), done)
	case isa.OpSLTI:
		tu.setReg(in.A, boolBit(int32(b) < in.Imm), done)
	case isa.OpSLTIU:
		tu.setReg(in.A, boolBit(b < uint32(in.Imm)), done)
	case isa.OpLUI:
		tu.setReg(in.A, uint32(in.Imm)<<13, done)

	case isa.OpMFSPR:
		v, ok := m.readSPR(tu, uint32(in.Imm))
		if !ok {
			m.Trap("sim: thread %d: mfspr %d at %#x", tu.ID, in.Imm, tu.PC)
			return false
		}
		tu.setReg(in.A, v, done)
	case isa.OpMTSPR:
		if uint32(in.Imm) != isa.SPRBarrier {
			m.Trap("sim: thread %d: mtspr %d is not writable at %#x", tu.ID, in.Imm, tu.PC)
			return false
		}
		m.bar.Write(tu.ID, uint8(tu.reg(in.A)))
	case isa.OpSYNC, isa.OpSYSCALL, isa.OpHALT:
		// sync: the sequential engine is already globally ordered.
	}
	return true
}

func (m *Machine) readSPR(tu *TU, n uint32) (uint32, bool) {
	switch n {
	case isa.SPRTid:
		return uint32(tu.ID), true
	case isa.SPRNThreads:
		return uint32(m.Chip.Cfg.Threads), true
	case isa.SPRCycle:
		return uint32(m.cycle), true
	case isa.SPRCycleHi:
		return uint32(m.cycle >> 32), true
	case isa.SPRBarrier:
		return uint32(m.bar.Read()), true
	case isa.SPRMemSize:
		return m.mem.Size(), true
	case isa.SPRQuad:
		return uint32(tu.Quad), true
	}
	return 0, false
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// execBranch resolves a branch or jump, returning whether it was taken and
// the target.
func (m *Machine) execBranch(tu *TU, in isa.Inst, cycle uint64) (bool, uint32) {
	off := uint32(in.Imm) * 4
	target := tu.PC + 4 + off
	switch in.Op {
	case isa.OpJAL:
		tu.setReg(in.A, tu.PC+4, cycle+2)
		if obs.Enabled && tu.Samp != nil && in.A != isa.RZero {
			tu.Samp.Call(target) // linking jump: enter the callee
		}
		return true, target
	case isa.OpJALR:
		t := tu.reg(in.B) + uint32(in.Imm)
		tu.setReg(in.A, tu.PC+4, cycle+2)
		if t%4 != 0 {
			m.Trap("sim: thread %d: jalr to unaligned %#x at %#x", tu.ID, t, tu.PC)
			return false, 0
		}
		if obs.Enabled && tu.Samp != nil {
			if in.A != isa.RZero {
				tu.Samp.Call(t) // indirect call
			} else {
				tu.Samp.Ret() // jalr r0, rl: the return idiom
			}
		}
		return true, t
	}
	a, b := tu.reg(in.A), tu.reg(in.B)
	var taken bool
	switch in.Op {
	case isa.OpBEQ:
		taken = a == b
	case isa.OpBNE:
		taken = a != b
	case isa.OpBLT:
		taken = int32(a) < int32(b)
	case isa.OpBGE:
		taken = int32(a) >= int32(b)
	case isa.OpBLTU:
		taken = a < b
	case isa.OpBGEU:
		taken = a >= b
	}
	return taken, target
}

// execFP dispatches a floating-point operation to the quad's shared FPU.
func (m *Machine) execFP(tu *TU, in isa.Inst, info *isa.Info, cycle uint64) {
	lat := &m.Chip.Cfg.Latencies
	var exec, extra int
	switch info.Class {
	case isa.ClassFP:
		exec, extra = lat.FPExec, lat.FPLatency
	case isa.ClassFPDiv:
		exec, extra = lat.FPDivExec, 0
	case isa.ClassFPSqrt:
		exec, extra = lat.FPSqrtExec, 0
	case isa.ClassFMA:
		exec, extra = lat.FMAExec, lat.FMALatency
	}
	fpu := m.Chip.FPUs[tu.Quad]
	start := fpu.Dispatch(cycle, info.Pipe, exec)
	// WaitFPU charges any structural wait plus the policy's FPU-switch
	// penalty; the result's ready-time stays pinned to the pipe's start —
	// a switch delays the thread, not the operation in flight.
	resume := tu.WaitFPU(cycle, start)
	done := start + uint64(exec+extra)
	// The thread issues in one cycle; the pipe carries the rest.
	tu.ChargeRun(1)
	tu.nextAt = resume + 1

	writeF := func(f float64) {
		if !FRegOK(in.A) || in.A == 0 {
			m.Trap("sim: thread %d: bad fp destination r%d at %#x", tu.ID, in.A, tu.PC)
			return
		}
		tu.setFReg(in.A, f, done)
	}
	switch in.Op {
	case isa.OpFADD:
		writeF(tu.freg(in.B) + tu.freg(in.C))
	case isa.OpFSUB:
		writeF(tu.freg(in.B) - tu.freg(in.C))
	case isa.OpFMUL:
		writeF(tu.freg(in.B) * tu.freg(in.C))
	case isa.OpFDIV:
		writeF(tu.freg(in.B) / tu.freg(in.C))
	case isa.OpFSQRT:
		writeF(math.Sqrt(tu.freg(in.B)))
	case isa.OpFMA:
		writeF(tu.freg(in.B)*tu.freg(in.C) + tu.freg(in.D))
	case isa.OpFMS:
		writeF(tu.freg(in.B)*tu.freg(in.C) - tu.freg(in.D))
	case isa.OpFNEG:
		writeF(-tu.freg(in.B))
	case isa.OpFABS:
		writeF(math.Abs(tu.freg(in.B)))
	case isa.OpFMOV:
		writeF(tu.freg(in.B))
	case isa.OpFCVTDW:
		writeF(float64(int32(tu.reg(in.B))))
	case isa.OpFCVTWD:
		tu.setReg(in.A, uint32(int32(tu.freg(in.B))), done)
	case isa.OpFCEQ:
		tu.setReg(in.A, boolBit(tu.freg(in.B) == tu.freg(in.C)), done)
	case isa.OpFCLT:
		tu.setReg(in.A, boolBit(tu.freg(in.B) < tu.freg(in.C)), done)
	case isa.OpFCLE:
		tu.setReg(in.A, boolBit(tu.freg(in.B) <= tu.freg(in.C)), done)
	}
}

// execMem performs loads, stores and atomics: functional access against
// the embedded memory, timing through the cache system. It returns the
// cycle the thread is free to continue (stores block on write-buffer
// backpressure; loads free the thread immediately and deliver through the
// scoreboard), the access (for stall attribution), and ok=false on trap.
func (m *Machine) execMem(tu *TU, in isa.Inst, info *isa.Info, cycle uint64) (freeAt uint64, acc cache.Access, ok bool) {
	size := memSize(in.Op)
	var ea uint32
	if info.Format == isa.FmtR { // atomics: address in B, no offset
		ea = tu.reg(in.B)
	} else {
		ea = tu.reg(in.B) + uint32(in.Imm)
	}
	phys := arch.Phys(ea)
	if phys%size != 0 {
		m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, size, ea, tu.PC)
		return 0, cache.Access{}, false
	}
	memory := m.mem
	fail := func(err error) (uint64, cache.Access, bool) {
		m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, tu.PC)
		return 0, cache.Access{}, false
	}

	switch in.Op {
	case isa.OpLD:
		if !FRegOK(in.A) {
			m.Trap("sim: thread %d: ld destination r%d not a pair at %#x", tu.ID, in.A, tu.PC)
			return 0, cache.Access{}, false
		}
		v, err := memory.Read64(phys)
		if err != nil {
			return fail(err)
		}
		a := m.Chip.Data.Load(cycle, ea, int(size), tu.Quad)
		tu.setReg(in.A, uint32(v), a.Done)
		tu.setReg(in.A+1, uint32(v>>32), a.Done)
		return cycle + 1, a, true

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		v, err := memory.Read32(phys &^ 3)
		if err != nil {
			return fail(err)
		}
		shift := (phys & 3) * 8
		switch in.Op {
		case isa.OpLH:
			v = uint32(int32(int16(v >> shift)))
		case isa.OpLHU:
			v = uint32(uint16(v >> shift))
		case isa.OpLB:
			v = uint32(int32(int8(v >> shift)))
		case isa.OpLBU:
			v = uint32(uint8(v >> shift))
		}
		a := m.Chip.Data.Load(cycle, ea, int(size), tu.Quad)
		tu.setReg(in.A, v, a.Done)
		return cycle + 1, a, true

	case isa.OpSD:
		v := uint64(tu.reg(in.A)) | uint64(tu.reg(in.A+1))<<32
		if err := memory.Write64(phys, v); err != nil {
			return fail(err)
		}
		a := m.Chip.Data.Store(cycle, ea, int(size), tu.Quad)
		return a.Done, a, true

	case isa.OpSW:
		if err := memory.Write32(phys, tu.reg(in.A)); err != nil {
			return fail(err)
		}
		a := m.Chip.Data.Store(cycle, ea, int(size), tu.Quad)
		return a.Done, a, true

	case isa.OpSH:
		b := [2]byte{byte(tu.reg(in.A)), byte(tu.reg(in.A) >> 8)}
		if err := memory.Write(phys, b[:]); err != nil {
			return fail(err)
		}
		a := m.Chip.Data.Store(cycle, ea, int(size), tu.Quad)
		return a.Done, a, true

	case isa.OpSB:
		if err := memory.Write(phys, []byte{byte(tu.reg(in.A))}); err != nil {
			return fail(err)
		}
		a := m.Chip.Data.Store(cycle, ea, int(size), tu.Quad)
		return a.Done, a, true

	case isa.OpAMOADD, isa.OpAMOSWAP, isa.OpAMOCAS:
		old, err := memory.Read32(phys)
		if err != nil {
			return fail(err)
		}
		newV := old
		switch in.Op {
		case isa.OpAMOADD:
			newV = old + tu.reg(in.C)
		case isa.OpAMOSWAP:
			newV = tu.reg(in.C)
		case isa.OpAMOCAS:
			if old == tu.reg(in.A) {
				newV = tu.reg(in.C)
			}
		}
		if newV != old {
			if err := memory.Write32(phys, newV); err != nil {
				return fail(err)
			}
		}
		a := m.Chip.Data.Atomic(cycle, ea, int(size), tu.Quad)
		tu.setReg(in.A, old, a.Done)
		return a.Done, a, true
	}
	return cycle + 1, cache.Access{}, true
}
