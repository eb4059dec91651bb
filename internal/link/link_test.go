package link

import (
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, x, y, z int, torus bool) *Mesh {
	t.Helper()
	m, err := NewMesh(DefaultLinkConfig(), Coord{x, y, z}, torus)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultBandwidthMatchesPaper(t *testing.T) {
	c := DefaultLinkConfig()
	if c.BytesPerCycle() != 2 {
		t.Errorf("16-bit link moves %.1f B/cycle, want 2", c.BytesPerCycle())
	}
	// Section 2.2: maximum I/O bandwidth 12 GB/s.
	if got := c.PeakBandwidth() / 1e9; got < 11.9 || got > 12.1 {
		t.Errorf("peak I/O = %.1f GB/s, want 12", got)
	}
}

func TestMeshValidation(t *testing.T) {
	if _, err := NewMesh(DefaultLinkConfig(), Coord{0, 1, 1}, false); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewMesh(LinkConfig{WidthBits: 0}, Coord{1, 1, 1}, false); err == nil {
		t.Error("zero-width link accepted")
	}
	m := mustMesh(t, 4, 3, 2, false)
	if m.Cells() != 24 {
		t.Errorf("Cells = %d", m.Cells())
	}
}

func TestDimensionOrderedRouting(t *testing.T) {
	m := mustMesh(t, 4, 4, 4, false)
	hops, err := m.Route(Coord{0, 0, 0}, Coord{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Direction{XPlus, XPlus, YPlus, YPlus, YPlus, ZPlus}
	if len(hops) != len(want) {
		t.Fatalf("route = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hop %d = %v, want %v (x before y before z)", i, hops[i], want[i])
		}
	}
	// Negative directions too.
	hops, _ = m.Route(Coord{3, 3, 3}, Coord{1, 3, 3})
	if len(hops) != 2 || hops[0] != XMinus {
		t.Errorf("backward route = %v", hops)
	}
	// Self route is empty.
	if hops, _ := m.Route(Coord{1, 1, 1}, Coord{1, 1, 1}); len(hops) != 0 {
		t.Errorf("self route = %v", hops)
	}
	if _, err := m.Route(Coord{9, 0, 0}, Coord{0, 0, 0}); err == nil {
		t.Error("out-of-mesh source accepted")
	}
}

func TestTorusTakesShortWayAround(t *testing.T) {
	m := mustMesh(t, 8, 1, 1, true)
	hops, err := m.Route(Coord{0, 0, 0}, Coord{6, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 6 is 2 hops backwards around the ring, not 6 forwards.
	if len(hops) != 2 || hops[0] != XMinus {
		t.Errorf("torus route = %v, want two x- hops", hops)
	}
	mesh := mustMesh(t, 8, 1, 1, false)
	hops, _ = mesh.Route(Coord{0, 0, 0}, Coord{6, 0, 0})
	if len(hops) != 6 {
		t.Errorf("mesh route = %v hops, want 6 (no wrap)", len(hops))
	}
}

// Property: a route always reaches its destination.
func TestRouteReachesDestination(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := mustMesh(t, 5, 4, 3, torus)
		f := func(sx, sy, sz, dx, dy, dz uint8) bool {
			src := Coord{int(sx) % 5, int(sy) % 4, int(sz) % 3}
			dst := Coord{int(dx) % 5, int(dy) % 4, int(dz) % 3}
			hops, err := m.Route(src, dst)
			if err != nil {
				return false
			}
			cur := src
			for _, h := range hops {
				cur = m.step(cur, h)
			}
			return cur == dst
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("torus=%v: %v", torus, err)
		}
	}
}

func TestSendTiming(t *testing.T) {
	m := mustMesh(t, 4, 1, 1, false)
	// 1 KB over one 2 B/cycle hop: 512 transfer + 10 hop latency.
	done, err := m.Send(0, Coord{0, 0, 0}, Coord{1, 0, 0}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if done != 522 {
		t.Errorf("one-hop 1 KB delivered at %d, want 522", done)
	}
	// Two hops: store-and-forward doubles transfer plus two latencies.
	m = mustMesh(t, 4, 1, 1, false)
	done, _ = m.Send(0, Coord{0, 0, 0}, Coord{2, 0, 0}, 1024)
	if done != 2*522 {
		t.Errorf("two-hop 1 KB delivered at %d, want 1044", done)
	}
}

func TestLinkContention(t *testing.T) {
	m := mustMesh(t, 2, 1, 1, false)
	src, dst := Coord{0, 0, 0}, Coord{1, 0, 0}
	first, _ := m.Send(0, src, dst, 1024)
	second, err := m.Send(0, src, dst, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Errorf("contending sends not serialised: %d then %d", first, second)
	}
	if second != first+512 {
		t.Errorf("second send at %d, want first+transfer %d", second, first+512)
	}
	// Opposite-direction traffic is independent.
	back, _ := m.Send(0, dst, src, 1024)
	if back != first {
		t.Errorf("reverse link serialised with forward: %d vs %d", back, first)
	}
}

func TestLinkStats(t *testing.T) {
	m := mustMesh(t, 3, 1, 1, false)
	m.Send(0, Coord{0, 0, 0}, Coord{2, 0, 0}, 512)
	if m.Messages != 1 || m.HopCount != 2 {
		t.Errorf("messages/hops = %d/%d", m.Messages, m.HopCount)
	}
	busy, err := m.LinkBusy(Coord{0, 0, 0}, XPlus)
	if err != nil || busy != 256 {
		t.Errorf("link busy = %d, %v; want 256", busy, err)
	}
	if _, err := m.LinkBusy(Coord{9, 9, 9}, XPlus); err == nil {
		t.Error("bad coordinate accepted")
	}
}

func TestHostLink(t *testing.T) {
	m := mustMesh(t, 2, 2, 1, false)
	done, err := m.HostSend(0, Coord{1, 1, 0}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1024+10 {
		t.Errorf("host transfer done at %d, want 1034", done)
	}
	// The host port is its own resource.
	mesh, _ := m.Send(0, Coord{1, 1, 0}, Coord{0, 1, 0}, 2048)
	if mesh != 1034 {
		t.Errorf("mesh send should not queue behind host port: %d", mesh)
	}
	if _, err := m.HostSend(0, Coord{5, 0, 0}, 8); err == nil {
		t.Error("bad host cell accepted")
	}
}

func TestSendValidation(t *testing.T) {
	m := mustMesh(t, 2, 2, 2, false)
	if _, err := m.Send(0, Coord{0, 0, 0}, Coord{1, 1, 1}, 0); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := m.Send(0, Coord{0, 0, 0}, Coord{3, 0, 0}, 64); err == nil {
		t.Error("out-of-mesh destination accepted")
	}
}

func TestDirectionNames(t *testing.T) {
	names := map[Direction]string{
		XPlus: "x+", XMinus: "x-", YPlus: "y+", YMinus: "y-",
		ZPlus: "z+", ZMinus: "z-", Host: "host",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d = %q, want %q", d, d.String(), want)
		}
	}
	for d := XPlus; d <= ZMinus; d++ {
		if opposite(opposite(d)) != d {
			t.Errorf("opposite not involutive for %v", d)
		}
	}
}
