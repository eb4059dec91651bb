package isa

// Static register-effect metadata: which registers an instruction reads
// and writes, derived from its format and the pair conventions of the FP
// unit. internal/vet's dataflow passes are built on these queries; the
// simulator's executor knows the semantics anyway and uses them only to
// name a spin loop's registers at compile time, so they can afford to
// encode ABI-level facts such as the syscall argument registers.

// RegMask is a bitset over the 64 general-purpose registers.
type RegMask uint64

// Bit returns the mask with only register r set. Register 0 is hardwired
// to zero, so it never appears in use or def masks: reads of r0 are always
// safe and writes to it are discarded.
func Bit(r uint8) RegMask {
	if r == RZero || r >= NumRegs {
		return 0
	}
	return 1 << r
}

// Has reports whether register r is in the mask.
func (m RegMask) Has(r uint8) bool { return m&(1<<r) != 0 }

// Regs lists the registers in the mask, ascending.
func (m RegMask) Regs() []uint8 {
	var out []uint8
	for r := uint8(0); r < NumRegs; r++ {
		if m.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// pair returns the mask of the (r, r+1) double-precision pair. An odd or
// out-of-range base still contributes the registers it would actually
// touch, clamped to the register file.
func pair(r uint8) RegMask {
	return Bit(r) | Bit(r+1)
}

// unaryFP reports ops whose FmtR encoding carries only rd, ra.
func unaryFP(op Op) bool {
	switch op {
	case OpFNEG, OpFABS, OpFMOV, OpFSQRT, OpFCVTDW, OpFCVTWD:
		return true
	}
	return false
}

// fpCompare reports the FP compares, whose destination is an integer
// register even though the sources are pairs.
func fpCompare(op Op) bool {
	switch op {
	case OpFCEQ, OpFCLT, OpFCLE:
		return true
	}
	return false
}

// fpPairSources reports FmtR ops whose ra/rb sources are register pairs.
func fpPairSources(op Op) bool {
	switch op {
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFSQRT, OpFNEG, OpFABS, OpFMOV,
		OpFCVTWD, OpFCEQ, OpFCLT, OpFCLE:
		return true
	}
	return false
}

// fpPairDest reports FmtR ops whose rd destination is a register pair.
func fpPairDest(op Op) bool {
	switch op {
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFSQRT, OpFNEG, OpFABS, OpFMOV,
		OpFCVTDW:
		return true
	}
	return false
}

// RegEffects returns the registers in read and the registers written by
// one decoded instruction. Pair-typed operands (double-precision values,
// ld/sd data) contribute both halves of their (even, odd) pair. SYSCALL
// reads and writes RArg0 per the kernel ABI (the number in, the result
// out); the other argument registers depend on the syscall number and are
// deliberately left out so conservative dataflow does not flag exits that
// never set them.
func RegEffects(in Inst) (uses, defs RegMask) {
	info := Lookup(in.Op)
	switch info.Format {
	case FmtR:
		switch {
		case info.Mem: // atomics: rd, (ra), rb
			return Bit(in.B) | Bit(in.C), Bit(in.A)
		case in.Op == OpFCVTDW: // int word -> double pair
			return Bit(in.B), pair(in.A)
		case in.Op == OpFCVTWD: // double pair -> int word
			return pair(in.B), Bit(in.A)
		case fpCompare(in.Op): // pairs in, integer flag out
			return pair(in.B) | pair(in.C), Bit(in.A)
		case unaryFP(in.Op): // rd, ra pairs
			return pair(in.B), pair(in.A)
		case fpPairDest(in.Op) || fpPairSources(in.Op): // FP arithmetic
			return pair(in.B) | pair(in.C), pair(in.A)
		default: // integer rd, ra, rb
			return Bit(in.B) | Bit(in.C), Bit(in.A)
		}
	case FmtR4: // fma/fms: all four operands are pairs
		return pair(in.B) | pair(in.C) | pair(in.D), pair(in.A)
	case FmtI:
		switch {
		case in.Op == OpMFSPR:
			return 0, Bit(in.A)
		case in.Op == OpMTSPR:
			return Bit(in.A), 0
		case in.Op == OpJALR: // link in rd, target base in ra
			return Bit(in.B), Bit(in.A)
		case info.Mem && info.Pair: // ld
			return Bit(in.B), pair(in.A)
		default: // loads and immediates: rd, ra
			return Bit(in.B), Bit(in.A)
		}
	case FmtS: // stores: data in rs, base in ra
		if info.Pair {
			return pair(in.A) | Bit(in.B), 0
		}
		return Bit(in.A) | Bit(in.B), 0
	case FmtB:
		return Bit(in.A) | Bit(in.B), 0
	case FmtU, FmtJ: // lui, jal
		return 0, Bit(in.A)
	case FmtN:
		if in.Op == OpSYSCALL {
			return Bit(RArg0), Bit(RArg0)
		}
		return 0, 0
	}
	return 0, 0
}

// PairRole names one pair-typed operand position for diagnostics.
type PairRole struct {
	// Reg is the pair's base register as encoded.
	Reg uint8
	// Name is the operand's role ("rd", "ra", "rb", "rc", "rs").
	Name string
}

// PairBases lists the operands of in that must name even (base, base+1)
// double-precision register pairs. Instructions without pair operands
// return nil.
func PairBases(in Inst) []PairRole {
	info := Lookup(in.Op)
	switch info.Format {
	case FmtR4:
		return []PairRole{
			{in.A, "rd"}, {in.B, "ra"}, {in.C, "rb"}, {in.D, "rc"},
		}
	case FmtR:
		var out []PairRole
		if fpPairDest(in.Op) {
			out = append(out, PairRole{in.A, "rd"})
		}
		if fpPairSources(in.Op) {
			out = append(out, PairRole{in.B, "ra"})
			if !unaryFP(in.Op) {
				out = append(out, PairRole{in.C, "rb"})
			}
		}
		return out
	case FmtI:
		if info.Mem && info.Pair { // ld
			return []PairRole{{in.A, "rd"}}
		}
	case FmtS:
		if info.Pair { // sd
			return []PairRole{{in.A, "rs"}}
		}
	}
	return nil
}

// ReadOnlySPR reports whether SPR n exists but rejects mtspr; WritableSPR
// and KnownSPR complete the protocol table the simulator enforces at run
// time (exec.go traps on everything else).
func ReadOnlySPR(n int32) bool {
	switch n {
	case SPRTid, SPRNThreads, SPRCycle, SPRCycleHi, SPRMemSize, SPRQuad:
		return true
	}
	return false
}

// KnownSPR reports whether SPR n can be read without trapping.
func KnownSPR(n int32) bool {
	return n == SPRBarrier || ReadOnlySPR(n)
}

// SPRName names an SPR for diagnostics.
func SPRName(n int32) string {
	switch n {
	case SPRTid:
		return "tid"
	case SPRNThreads:
		return "nthreads"
	case SPRCycle:
		return "cycle"
	case SPRCycleHi:
		return "cyclehi"
	case SPRBarrier:
		return "barrier"
	case SPRMemSize:
		return "memsize"
	case SPRQuad:
		return "quad"
	}
	return "undefined"
}
