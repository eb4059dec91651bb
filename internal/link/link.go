// Package link models the Cyclops communication interface (Section 2.2):
// each chip provides six input and six output links, 16 bits wide at
// 500 MHz (1 GB/s per direction per link, 12 GB/s aggregate), that
// connect chips directly into a three-dimensional mesh or torus. A
// seventh link attaches a host computer. Large systems are built by
// replicating the chip as a cell in a regular pattern — the "cellular
// computing" of the paper's title.
//
// The model is message-level: blocks move between neighbouring cells with
// link occupancy and store-and-forward hop latency, and multi-hop
// transfers follow dimension-ordered (x, then y, then z) routing, the
// standard deadlock-free choice for meshes.
package link

import (
	"fmt"

	"cyclops/internal/arch"
)

// Direction names the six mesh links plus the host port.
type Direction int

// The six cell faces and the host link.
const (
	XPlus Direction = iota
	XMinus
	YPlus
	YMinus
	ZPlus
	ZMinus
	Host
	numDirections
)

func (d Direction) String() string {
	switch d {
	case XPlus:
		return "x+"
	case XMinus:
		return "x-"
	case YPlus:
		return "y+"
	case YMinus:
		return "y-"
	case ZPlus:
		return "z+"
	case ZMinus:
		return "z-"
	case Host:
		return "host"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// opposite returns the receiving side of a link.
func opposite(d Direction) Direction {
	switch d {
	case XPlus:
		return XMinus
	case XMinus:
		return XPlus
	case YPlus:
		return YMinus
	case YMinus:
		return YPlus
	case ZPlus:
		return ZMinus
	}
	return ZPlus
}

// Coord addresses a cell in the 3-D array.
type Coord struct{ X, Y, Z int }

// LinkConfig sizes the interconnect.
type LinkConfig struct {
	// WidthBits is the link width (16) and determines bandwidth:
	// WidthBits/8 bytes per cycle at the 500 MHz clock.
	WidthBits int
	// HopLatency is the store-and-forward switch latency per hop in
	// cycles.
	HopLatency int
}

// DefaultLinkConfig matches Section 2.2.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{WidthBits: 16, HopLatency: 10}
}

// BytesPerCycle returns the per-link bandwidth.
func (c LinkConfig) BytesPerCycle() float64 { return float64(c.WidthBits) / 8 }

// PeakBandwidth returns the aggregate I/O bandwidth in bytes/second over
// the six input plus six output links (12 GB/s at the default, matching
// Section 2.2).
func (c LinkConfig) PeakBandwidth() float64 {
	return 12 * c.BytesPerCycle() * arch.ClockHz
}

// Mesh is a 3-D array of cells connected by links. Torus wrap-around is
// optional per the paper ("mesh or torus").
type Mesh struct {
	cfg   LinkConfig
	dims  Coord
	torus bool
	// freeAt[cell][dir] is the next cycle the outgoing link is idle.
	freeAt [][numDirections]uint64
	// busy accumulates per-link occupancy for utilization stats.
	busy [][numDirections]uint64

	// Messages counts completed transfers; HopCount their total hops.
	Messages, HopCount uint64
}

// NewMesh builds a dims.X x dims.Y x dims.Z cell array.
func NewMesh(cfg LinkConfig, dims Coord, torus bool) (*Mesh, error) {
	if dims.X < 1 || dims.Y < 1 || dims.Z < 1 {
		return nil, fmt.Errorf("link: bad mesh dimensions %+v", dims)
	}
	if cfg.WidthBits < 1 || cfg.HopLatency < 0 {
		return nil, fmt.Errorf("link: bad link config %+v", cfg)
	}
	n := dims.X * dims.Y * dims.Z
	return &Mesh{
		cfg:    cfg,
		dims:   dims,
		torus:  torus,
		freeAt: make([][numDirections]uint64, n),
		busy:   make([][numDirections]uint64, n),
	}, nil
}

// Cells returns the number of cells.
func (m *Mesh) Cells() int { return m.dims.X * m.dims.Y * m.dims.Z }

// Dims returns the array shape.
func (m *Mesh) Dims() Coord { return m.dims }

func (m *Mesh) index(c Coord) (int, error) {
	if c.X < 0 || c.X >= m.dims.X || c.Y < 0 || c.Y >= m.dims.Y || c.Z < 0 || c.Z >= m.dims.Z {
		return 0, fmt.Errorf("link: coordinate %+v outside %+v", c, m.dims)
	}
	return (c.Z*m.dims.Y+c.Y)*m.dims.X + c.X, nil
}

// Route returns the dimension-ordered hop sequence from src to dst.
// On a torus each axis takes the shorter way around.
func (m *Mesh) Route(src, dst Coord) ([]Direction, error) {
	if _, err := m.index(src); err != nil {
		return nil, err
	}
	if _, err := m.index(dst); err != nil {
		return nil, err
	}
	var hops []Direction
	axes := []struct {
		cur, want, size int
		plus, minus     Direction
	}{
		{src.X, dst.X, m.dims.X, XPlus, XMinus},
		{src.Y, dst.Y, m.dims.Y, YPlus, YMinus},
		{src.Z, dst.Z, m.dims.Z, ZPlus, ZMinus},
	}
	for _, a := range axes {
		d := a.want - a.cur
		if m.torus && a.size > 1 {
			// Take the shorter direction around the ring.
			if d > a.size/2 {
				d -= a.size
			} else if d < -a.size/2 {
				d += a.size
			}
		}
		for d > 0 {
			hops = append(hops, a.plus)
			d--
		}
		for d < 0 {
			hops = append(hops, a.minus)
			d++
		}
	}
	return hops, nil
}

// step returns the coordinate after one hop, applying torus wrap.
func (m *Mesh) step(c Coord, d Direction) Coord {
	switch d {
	case XPlus:
		c.X++
	case XMinus:
		c.X--
	case YPlus:
		c.Y++
	case YMinus:
		c.Y--
	case ZPlus:
		c.Z++
	case ZMinus:
		c.Z--
	}
	wrap := func(v, size int) int { return (v + size) % size }
	if m.torus {
		c.X, c.Y, c.Z = wrap(c.X, m.dims.X), wrap(c.Y, m.dims.Y), wrap(c.Z, m.dims.Z)
	}
	return c
}

// Send times a bytes-long message from src to dst starting no earlier
// than cycle now, returning the delivery cycle. Each hop occupies the
// outgoing link for bytes/width cycles (store-and-forward) plus the hop
// latency; contending messages queue FIFO per link.
func (m *Mesh) Send(now uint64, src, dst Coord, bytes int) (uint64, error) {
	if bytes <= 0 {
		return now, fmt.Errorf("link: message size %d", bytes)
	}
	hops, err := m.Route(src, dst)
	if err != nil {
		return now, err
	}
	if len(hops) == 0 {
		return now, nil // local delivery
	}
	transfer := uint64(float64(bytes)/m.cfg.BytesPerCycle() + 0.999)
	t := now
	cur := src
	for _, d := range hops {
		idx, err := m.index(cur)
		if err != nil {
			return now, fmt.Errorf("link: route left the mesh at %+v (no torus wrap?)", cur)
		}
		start := t
		if m.freeAt[idx][d] > start {
			start = m.freeAt[idx][d]
		}
		m.freeAt[idx][d] = start + transfer
		m.busy[idx][d] += transfer
		t = start + transfer + uint64(m.cfg.HopLatency)
		cur = m.step(cur, d)
		m.HopCount++
	}
	m.Messages++
	return t, nil
}

// HostSend times a transfer over a cell's host link.
func (m *Mesh) HostSend(now uint64, cell Coord, bytes int) (uint64, error) {
	idx, err := m.index(cell)
	if err != nil {
		return now, err
	}
	transfer := uint64(float64(bytes)/m.cfg.BytesPerCycle() + 0.999)
	start := now
	if m.freeAt[idx][Host] > start {
		start = m.freeAt[idx][Host]
	}
	m.freeAt[idx][Host] = start + transfer
	m.busy[idx][Host] += transfer
	m.Messages++
	return start + transfer + uint64(m.cfg.HopLatency), nil
}

// LinkBusy returns the accumulated occupancy of one outgoing link.
func (m *Mesh) LinkBusy(cell Coord, d Direction) (uint64, error) {
	idx, err := m.index(cell)
	if err != nil {
		return 0, err
	}
	if d < 0 || d >= numDirections {
		return 0, fmt.Errorf("link: bad direction %d", d)
	}
	return m.busy[idx][d], nil
}
