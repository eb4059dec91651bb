package timing

import (
	"fmt"
	"strconv"
	"strings"
)

// Policy is the thread-unit issue policy: the rule deciding what happens
// when an issue attempt cannot proceed. The paper's Cyclops issues
// fine-grained from ready threads — a stalled thread simply waits out its
// stall with zero switch cost — while the contrasting blocked-MT designs
// (the related simulators' model) run one thread until it blocks and then
// pay a context-switch penalty to resume. A Policy expresses that design
// axis as a per-trigger penalty table consumed by the shared Ledger, so
// every engine and both execution frontends honor a policy through the
// exact same charge rules.
//
// Semantics: a policy never reorders or suppresses work. It adds a fixed
// penalty — charged to obs.SwitchStall and added to the thread's resume
// time — on each stall *event* whose trigger the policy switches on. The
// underlying wait keeps its own stall reason, so breakdowns attribute the
// policy overhead separately instead of smearing it into the resource
// buckets. A penalty of zero is therefore bit-identical to fine-grained,
// and all timing flows through Ledger charges plus resume times — which
// is what keeps the two sim engines cycle-identical under any policy.
type Policy interface {
	// Name returns the flag spelling: fine, blocked or switchmiss.
	Name() string
	// Penalty returns the context-switch penalty in cycles.
	Penalty() uint64
	// Table compiles the policy into the per-ledger trigger table the
	// hot path consults (no interface dispatch per issue).
	Table() PolicyTable
	// String renders the policy for table labels: "fine", "blocked/8".
	String() string
}

// PolicyTable is a compiled Policy: the switch penalty applied on each
// stall trigger, zero meaning the trigger does not switch. The zero value
// is the fine-grained policy. Triggers are stall events, charged once per
// event, not per stalled cycle:
//
//   - OnDep: an operand was not ready (scoreboard interlock).
//   - OnFPU: the quad-shared FPU pipe was occupied (structural wait).
//   - OnMem: the write path backpressured (store buffer / atomic block).
//   - OnMiss: a data-side access missed the cache (local or remote).
//   - OnIFetch: an instruction fetch missed the I-cache.
type PolicyTable struct {
	OnDep, OnFPU, OnMem, OnMiss, OnIFetch uint64
}

// FineGrain is the paper's design point: stalled threads park for free and
// resume the cycle their resource is ready. All triggers are zero.
type FineGrain struct{}

func (FineGrain) Name() string       { return "fine" }
func (FineGrain) Penalty() uint64    { return 0 }
func (FineGrain) Table() PolicyTable { return PolicyTable{} }
func (FineGrain) String() string     { return "fine" }

// Blocked is classic blocked multithreading: the thread unit runs one
// context until *any* stall event blocks it — dependence wait, FPU
// structural wait, write backpressure, I-fetch miss — and pays Pen cycles
// of pipeline drain/refill to switch. Load misses are not a separate
// trigger: a blocked-MT core switches when the consumer waits, which the
// dependence trigger already charges.
type Blocked struct {
	Pen uint64
}

func (p Blocked) Name() string    { return "blocked" }
func (p Blocked) Penalty() uint64 { return p.Pen }
func (p Blocked) Table() PolicyTable {
	return PolicyTable{OnDep: p.Pen, OnFPU: p.Pen, OnMem: p.Pen, OnIFetch: p.Pen}
}
func (p Blocked) String() string { return fmt.Sprintf("blocked/%d", p.Pen) }

// SwitchOnMiss is the hybrid: short pipeline stalls (dependences, FPU
// occupancy, store backpressure) are tolerated fine-grained, but a cache
// miss — data-side or instruction-side — triggers a switch, paying Pen
// cycles. This is the policy that isolates miss tolerance from
// fine-grained issue.
type SwitchOnMiss struct {
	Pen uint64
}

func (p SwitchOnMiss) Name() string    { return "switchmiss" }
func (p SwitchOnMiss) Penalty() uint64 { return p.Pen }
func (p SwitchOnMiss) Table() PolicyTable {
	return PolicyTable{OnMiss: p.Pen, OnIFetch: p.Pen}
}
func (p SwitchOnMiss) String() string { return fmt.Sprintf("switchmiss/%d", p.Pen) }

// ParsePolicySpec resolves a policy's canonical one-string spelling —
// the String form: "fine", "blocked/8", "switchmiss/12" — back into a
// Policy. A bare "blocked" or "switchmiss" takes the default 8-cycle
// penalty (the -switch-penalty flag default). This is the spelling job
// specs and the serve API carry, so it must round-trip String exactly.
func ParsePolicySpec(spec string) (Policy, error) {
	name, penStr, hasPen := strings.Cut(spec, "/")
	pen := uint64(DefaultSwitchPenalty)
	if hasPen {
		v, err := strconv.ParseUint(penStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("timing: policy spec %q: bad penalty %q", spec, penStr)
		}
		pen = v
	}
	return ParsePolicy(name, pen)
}

// DefaultSwitchPenalty is the context-switch penalty assumed when a
// policy spec or flag set names a switching policy without one: an
// 8-cycle pipeline drain/refill.
const DefaultSwitchPenalty = 8

// ParsePolicy resolves a -policy flag value with its -switch-penalty.
// The penalty is ignored by the fine-grained policy.
func ParsePolicy(name string, penalty uint64) (Policy, error) {
	switch name {
	case "fine", "":
		return FineGrain{}, nil
	case "blocked":
		return Blocked{Pen: penalty}, nil
	case "switchmiss":
		return SwitchOnMiss{Pen: penalty}, nil
	}
	return nil, fmt.Errorf("timing: unknown policy %q (want fine, blocked or switchmiss)", name)
}
