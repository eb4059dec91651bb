package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// reflective is Snapshot without its MarshalJSON: encoding/json encodes it
// field by field, the form the hand-written encoder must reproduce.
type reflective Snapshot

// TestSnapshotMarshalMatchesReflection compares MarshalJSON with the
// reflective encoding on random snapshots: extreme and negative numbers,
// nil and empty slices, and resource kinds that need escaping.
func TestSnapshotMarshalMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	num := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 - uint64(rng.Intn(3))
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	kinds := []string{"cacheport", "drambank", "fpu", "", `a"b\c`, "<&>", "tab\there", "é\u2028", "\xff"}
	for iter := 0; iter < 300; iter++ {
		s := &Snapshot{Cycles: num()}
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			s.Threads = make([]ThreadStat, n)
		}
		for i := range s.Threads {
			th := &s.Threads[i]
			th.ID, th.Quad = rng.Intn(200)-50, []int{0, 7, -1, math.MinInt, math.MaxInt}[rng.Intn(5)]
			th.Insts, th.Run, th.Stall = num(), num(), num()
			for r := range th.Stalls {
				th.Stalls[r] = num()
			}
			for k := range th.MemWaits {
				th.MemWaits[k] = num()
			}
		}
		if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
			s.Resources = make([]ResourceStats, n)
		}
		for i := range s.Resources {
			s.Resources[i] = ResourceStats{Kind: kinds[rng.Intn(len(kinds))], ID: rng.Intn(40) - 3,
				Busy: num(), Grants: num(), Conflicts: num(), WaitCycles: num()}
		}
		s.Finish()
		s.Cycles = num()

		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal((*reflective)(s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d:\n got %s\nwant %s", iter, got, want)
		}
		direct, _ := s.MarshalJSON()
		if cap(direct) != len(direct) {
			t.Fatalf("snapshot %d: MarshalJSON allocated %d bytes for %d", iter, cap(direct), len(direct))
		}
	}
}

// A snapshot costs one allocation to encode, however many threads it has.
func TestSnapshotMarshalAllocs(t *testing.T) {
	s := &Snapshot{Threads: make([]ThreadStat, 64), Resources: make([]ResourceStats, 16)}
	for i := range s.Resources {
		s.Resources[i].Kind = "drambank"
	}
	if n := testing.AllocsPerRun(20, func() { s.MarshalJSON() }); n != 1 {
		t.Errorf("MarshalJSON made %v allocations, want 1", n)
	}
}
