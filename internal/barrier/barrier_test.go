package barrier

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestWiredOR(t *testing.T) {
	w := NewWired(4)
	if w.Read() != 0 {
		t.Fatal("fresh OR nonzero")
	}
	w.Write(0, 0b0001)
	w.Write(1, 0b0010)
	w.Write(2, 0b0001)
	if got := w.Read(); got != 0b0011 {
		t.Fatalf("OR = %#b, want 0b0011", got)
	}
	// Thread 0 clears its bit; thread 2 still drives bit 0.
	w.Write(0, 0)
	if got := w.Read(); got != 0b0011 {
		t.Fatalf("OR = %#b, want 0b0011 (thread 2 still driving)", got)
	}
	w.Write(2, 0)
	if got := w.Read(); got != 0b0010 {
		t.Fatalf("OR = %#b, want 0b0010", got)
	}
	if w.Own(1) != 0b0010 {
		t.Errorf("Own(1) = %#b", w.Own(1))
	}
}

// TestReadMatchesCountScan: Read returns a register Write keeps current,
// so after any sequence of writes it must equal the scan it replaced (bit b
// set exactly when counts[b] > 0), which is the OR of every thread's SPR,
// and what Preview said the write would produce.
func TestReadMatchesCountScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := NewWired(1 + rng.Intn(16))
		for i := 0; i < 64; i++ {
			tid, v := rng.Intn(len(w.spr)), uint8(rng.Intn(256))
			preview := w.Preview(tid, v)
			w.Write(tid, v)
			var scan, or uint8
			for b := 0; b < 8; b++ {
				if w.counts[b] > 0 {
					scan |= 1 << b
				}
			}
			for _, v := range w.spr {
				or |= v
			}
			if got := w.Read(); got != scan || got != or || got != preview {
				t.Fatalf("trial %d write %d: Read = %#08b, count scan %#08b, OR of SPRs %#08b, Preview %#08b",
					trial, i, got, scan, or, preview)
			}
		}
	}
}

func TestBitRolesInterchange(t *testing.T) {
	// Barrier 0 uses bits 0 and 1; barrier 3 uses bits 6 and 7.
	if CurBit(0, 0) != 0b01 || NextBit(0, 0) != 0b10 {
		t.Error("barrier 0 phase 0 bits wrong")
	}
	if CurBit(0, 1) != 0b10 || NextBit(0, 1) != 0b01 {
		t.Error("barrier 0 phase 1 roles did not interchange")
	}
	if CurBit(3, 0) != 0x40 || NextBit(3, 0) != 0x80 {
		t.Error("barrier 3 bits wrong")
	}
}

// Run the full protocol for several phases and random arrival orders: no
// thread may observe release before every thread has entered.
func TestProtocolSafetyAndLiveness(t *testing.T) {
	const n = 16
	r := rand.New(rand.NewSource(42))
	for k := 0; k < 4; k++ {
		w := NewWired(n)
		parts := make([]*Participant, n)
		for i := range parts {
			p, init := NewParticipant(k)
			parts[i] = p
			w.Write(i, init)
		}
		for phase := 0; phase < 6; phase++ {
			order := r.Perm(n)
			for idx, tid := range order {
				p := parts[tid]
				w.Write(tid, p.EnterValue(w.Own(tid)))
				released := p.Released(w.Read())
				last := idx == n-1
				if released && !last {
					t.Fatalf("barrier %d phase %d: thread %d saw release with %d threads missing",
						k, phase, tid, n-1-idx)
				}
				if last && !released {
					t.Fatalf("barrier %d phase %d: last thread not released", k, phase)
				}
			}
			// After release every thread observes it and advances.
			for _, p := range parts {
				if !p.Released(w.Read()) {
					t.Fatal("release not visible to all")
				}
				p.Advance()
			}
		}
		for _, p := range parts {
			if p.Phase() != 6 {
				t.Errorf("participant completed %d phases, want 6", p.Phase())
			}
		}
	}
}

// Four barriers are independent: entering barrier 0 does not disturb an
// in-progress barrier 2.
func TestBarriersAreIndependent(t *testing.T) {
	const n = 4
	w := NewWired(n)
	p0 := make([]*Participant, n)
	p2 := make([]*Participant, n)
	for i := 0; i < n; i++ {
		var init0, init2 uint8
		p0[i], init0 = NewParticipant(0)
		p2[i], init2 = NewParticipant(2)
		w.Write(i, init0|init2)
	}
	// Everyone passes barrier 0.
	for i := 0; i < n; i++ {
		w.Write(i, p0[i].EnterValue(w.Own(i)))
	}
	if !p0[0].Released(w.Read()) {
		t.Fatal("barrier 0 did not release")
	}
	// Barrier 2 is still armed: only 3 of 4 enter.
	for i := 0; i < n-1; i++ {
		w.Write(i, p2[i].EnterValue(w.Own(i)))
	}
	if p2[0].Released(w.Read()) {
		t.Fatal("barrier 2 released early")
	}
	w.Write(n-1, p2[n-1].EnterValue(w.Own(n-1)))
	if !p2[0].Released(w.Read()) {
		t.Fatal("barrier 2 did not release")
	}
}

// Non-participating threads leave both bits 0 and never block a barrier.
func TestNonParticipants(t *testing.T) {
	w := NewWired(8)
	// Only threads 0..3 participate.
	parts := make([]*Participant, 4)
	for i := range parts {
		p, init := NewParticipant(1)
		parts[i] = p
		w.Write(i, init)
	}
	for i, p := range parts {
		w.Write(i, p.EnterValue(w.Own(i)))
	}
	if !parts[0].Released(w.Read()) {
		t.Error("idle threads blocked the barrier")
	}
}

// Reset drops every contribution: the network reads as NewWired's.
func TestResetMatchesNewWired(t *testing.T) {
	w := NewWired(8)
	w.Write(0, 0x81)
	w.Write(7, 0x03)
	w.Reset()
	if !reflect.DeepEqual(w, NewWired(8)) {
		t.Errorf("reset network %+v, want a fresh one", w)
	}
}
