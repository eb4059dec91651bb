package sim

import "cyclops/internal/timing"

// Policy is the thread-unit issue policy — fine-grained round-robin (the
// paper's design), blocked switch-on-stall, or hybrid switch-on-miss.
// The abstraction and its charge rules live in internal/timing, shared
// with the direct-execution runtime; this alias and the re-export below
// let simulator callers select policies without importing timing.
// Policies are honored identically by both engines: every penalty
// flows through the shared Ledger and the unit's resume time, both of
// which the engines already agree on by construction.
type Policy = timing.Policy

// ParsePolicy resolves a -policy flag value with its -switch-penalty.
func ParsePolicy(name string, penalty uint64) (Policy, error) {
	return timing.ParsePolicy(name, penalty)
}

// SetPolicy selects this machine's issue policy. Must be called before
// any thread is started: the compiled trigger tables are installed per
// unit, and switching them mid-run would split one run's accounting
// across two policies.
func (m *Machine) SetPolicy(p Policy) {
	if len(m.active) > 0 {
		panic("sim: SetPolicy after Start")
	}
	if p == nil {
		p = timing.FineGrain{}
	}
	m.pol = p
	tab := p.Table()
	for _, tu := range m.tus {
		if tu != nil {
			tu.Pol = tab
		}
	}
}

// Policy reports the machine's selected issue policy.
func (m *Machine) Policy() Policy { return m.pol }
