package splash

import (
	"fmt"
	"math"
	"slices"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

// Barnes is the SPLASH-2 Barnes-Hut N-body application: bodies exert
// gravity on each other through a Barnes-Hut octree with the theta
// opening criterion. Each time step builds the tree, computes forces in
// parallel over a body partition, and integrates with leapfrog, with
// barriers between phases. As in the original, force computation
// dominates; tree build runs on thread 0 (a documented simplification of
// SPLASH-2's parallel loading — it is a small fraction of the step and
// bounds speedup realistically via Amdahl's law).
//
// Interaction arithmetic is charged as fused multiply-add work including
// a software reciprocal-square-root (Newton-Raphson), the natural coding
// for a machine whose divide/sqrt unit is shared per quad.

// BarnesOpts configures a run.
type BarnesOpts struct {
	Config
	// NBodies is the body count; Steps the number of time steps
	// (default 2); Theta the opening angle (default 0.7).
	NBodies int
	Steps   int
	Theta   float64
	// Bodies, when non-nil, supplies initial states and receives the
	// final ones when the run succeeds.
	Bodies []Body
}

// Body is one particle.
type Body struct {
	Pos, Vel, Acc [3]float64
	Mass          float64
}

// octNode is one cell of the Barnes-Hut tree.
type octNode struct {
	center [3]float64
	half   float64
	mass   float64
	com    [3]float64
	child  [8]int32 // node indices; -1 empty
	body   int32    // body index for leaves; -1 internal
}

// RunBarnes executes the kernel.
func RunBarnes(opts BarnesOpts) (*Result, error) {
	n := opts.NBodies
	if n < 2 {
		return nil, fmt.Errorf("splash: barnes needs at least 2 bodies, got %d", n)
	}
	steps := opts.Steps
	if steps == 0 {
		steps = 2
	}
	theta := opts.Theta
	if theta == 0 {
		theta = 0.7
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}
	eaBodies, err := AllocShared(mach, 64, n) // one padded line per body
	if err != nil {
		return nil, err
	}
	eaTree, err := AllocShared(mach, 64*2, n)
	if err != nil {
		return nil, err
	}
	if opts.Bodies != nil && len(opts.Bodies) != n {
		return nil, fmt.Errorf("splash: bodies length %d != %d", len(opts.Bodies), n)
	}
	// The steps move their own copy of supplied bodies, written back only
	// when the run succeeds.
	bodies := slices.Clone(opts.Bodies)
	if bodies == nil {
		bodies = PlummerBodies(n, 99)
	}

	const dt = 0.01
	tree := &octTree{}
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, err
	}

	err = mach.SpawnN(opts.Threads, func(t *perf.T, p int) {
		// The thread's own traversal stack and gather buffer, reused
		// for every body; never shared, since threads interleave
		// inside a gather.
		var stack []int32
		var eas [32]uint32
		for s := 0; s < steps; s++ {
			// Phase 1: thread 0 rebuilds the tree.
			if p == 0 {
				tree.build(bodies)
				// Charge ~1 store + bookkeeping per insertion level.
				t.LoadBlock(eaBodies, n, 8, 64)
				t.Work(12 * len(tree.nodes))
				t.StoreBlock(eaTree, len(tree.nodes), 8, 64)
			}
			bar.Wait(t, p)

			// Phase 2: forces over my body span.
			lo, hi := Span(n, p, opts.Threads)
			for b := lo; b < hi; b++ {
				var visited, interactions int
				visited, interactions, stack = tree.force(&bodies[b], b, theta, stack)
				// Traversal loads: one line per visited node,
				// gathered in chunks.
				for v := 0; v < visited; v += 32 {
					c := minInt(len(eas), visited-v)
					for k := 0; k < c; k++ {
						idx := (b*7 + v + k) % (2 * n) // spread over the pool
						eas[k] = eaTree + uint32(64*idx)
					}
					t.LoadGather(eas[:c], 8)
					t.Work(3 * c)
				}
				// ~16 multiply-add class ops per interaction
				// (r^2, NR rsqrt, accumulate).
				t.FPBlock(isa.PipeBoth, 16*interactions)
			}
			bar.Wait(t, p)

			// Phase 3: leapfrog integration of my span.
			v := t.LoadBlock(eaBodies+uint32(64*lo), hi-lo, 8, 64)
			for b := lo; b < hi; b++ {
				for d := 0; d < 3; d++ {
					bodies[b].Vel[d] += bodies[b].Acc[d] * dt
					bodies[b].Pos[d] += bodies[b].Vel[d] * dt
				}
			}
			f := t.FPBlock(isa.PipeBoth, 6*(hi-lo), v)
			t.StoreBlock(eaBodies+uint32(64*lo), hi-lo, 8, 64, f)
			bar.Wait(t, p)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	if opts.Bodies != nil {
		copy(opts.Bodies, bodies)
	}
	return NewResult("Barnes", fmt.Sprintf("%d bodies, %d steps", n, steps), opts.Threads, mach), nil
}

// octTree holds the Barnes-Hut tree for one step.
type octTree struct {
	nodes []octNode
}

// build builds the tree over bodies into the node array of the last step.
// The first step sizes it at two nodes a body, which a Plummer sphere's
// tree (about 1.5 a body) fits, so it does not grow by appending.
func (tr *octTree) build(bodies []Body) {
	if tr.nodes == nil {
		tr.nodes = make([]octNode, 0, 2*len(bodies))
	}
	tr.nodes = tr.nodes[:0]
	// Bounding cube.
	var lo, hi [3]float64
	for d := 0; d < 3; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for i := range bodies {
		for d := 0; d < 3; d++ {
			lo[d] = math.Min(lo[d], bodies[i].Pos[d])
			hi[d] = math.Max(hi[d], bodies[i].Pos[d])
		}
	}
	half := 0.0
	var center [3]float64
	for d := 0; d < 3; d++ {
		center[d] = (lo[d] + hi[d]) / 2
		half = math.Max(half, (hi[d]-lo[d])/2)
	}
	half *= 1.0001
	if half == 0 {
		half = 1
	}
	tr.newNode(center, half)
	for i := range bodies {
		tr.insert(0, bodies, int32(i))
	}
	tr.summarize(0, bodies)
}

func (tr *octTree) newNode(center [3]float64, half float64) int32 {
	tr.nodes = append(tr.nodes, octNode{
		center: center, half: half, body: -1,
		child: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
	})
	return int32(len(tr.nodes) - 1)
}

func (tr *octTree) octant(nIdx int32, pos [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if pos[d] >= tr.nodes[nIdx].center[d] {
			o |= 1 << d
		}
	}
	return o
}

func (tr *octTree) insert(nIdx int32, bodies []Body, b int32) {
	node := &tr.nodes[nIdx]
	if node.body == -1 && node.mass == 0 && node.childless() {
		node.body = b
		node.mass = bodies[b].Mass
		return
	}
	if node.body >= 0 {
		// Leaf splits: push the resident body down.
		old := node.body
		node.body = -1
		node.mass = 0
		tr.pushDown(nIdx, bodies, old)
	}
	tr.pushDown(nIdx, bodies, b)
}

func (tr *octTree) pushDown(nIdx int32, bodies []Body, b int32) {
	o := tr.octant(nIdx, bodies[b].Pos)
	child := tr.nodes[nIdx].child[o]
	if child == -1 {
		parent := tr.nodes[nIdx]
		var c [3]float64
		for d := 0; d < 3; d++ {
			off := parent.half / 2
			if o&(1<<d) == 0 {
				off = -off
			}
			c[d] = parent.center[d] + off
		}
		child = tr.newNode(c, parent.half/2)
		tr.nodes[nIdx].child[o] = child
	}
	tr.insert(child, bodies, b)
}

func (n *octNode) childless() bool {
	for _, c := range n.child {
		if c != -1 {
			return false
		}
	}
	return true
}

// summarize computes mass and centre of mass bottom-up.
func (tr *octTree) summarize(nIdx int32, bodies []Body) (mass float64, com [3]float64) {
	node := &tr.nodes[nIdx]
	if node.body >= 0 {
		node.mass = bodies[node.body].Mass
		node.com = bodies[node.body].Pos
		return node.mass, node.com
	}
	var m float64
	var c [3]float64
	for _, ch := range node.child {
		if ch == -1 {
			continue
		}
		cm, cc := tr.summarize(ch, bodies)
		m += cm
		for d := 0; d < 3; d++ {
			c[d] += cm * cc[d]
		}
	}
	if m > 0 {
		for d := 0; d < 3; d++ {
			c[d] /= m
		}
	}
	node.mass = m
	node.com = c
	return m, c
}

const softening = 1e-4

// force computes the acceleration on body b, returning the number of
// nodes visited and interactions evaluated (for timing). It traverses with
// the caller's stack, returned grown for the next call.
func (tr *octTree) force(body *Body, b int, theta float64, stack []int32) (visited, interactions int, _ []int32) {
	var acc [3]float64
	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		nIdx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := &tr.nodes[nIdx]
		visited++
		if node.mass == 0 {
			continue
		}
		if node.body == int32(b) {
			continue
		}
		var dr [3]float64
		var d2 float64
		for d := 0; d < 3; d++ {
			dr[d] = node.com[d] - body.Pos[d]
			d2 += dr[d] * dr[d]
		}
		open := node.body < 0 && (2*node.half)*(2*node.half) > theta*theta*d2
		if open {
			for _, ch := range node.child {
				if ch != -1 {
					stack = append(stack, ch)
				}
			}
			continue
		}
		interactions++
		inv := 1 / math.Sqrt(d2+softening)
		f := node.mass * inv * inv * inv
		for d := 0; d < 3; d++ {
			acc[d] += f * dr[d]
		}
	}
	body.Acc = acc
	return visited, interactions, stack
}

// DirectForces computes reference accelerations in O(n^2) (for tests).
func DirectForces(bodies []Body) [][3]float64 {
	n := len(bodies)
	acc := make([][3]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			var dr [3]float64
			var d2 float64
			for d := 0; d < 3; d++ {
				dr[d] = bodies[j].Pos[d] - bodies[i].Pos[d]
				d2 += dr[d] * dr[d]
			}
			inv := 1 / math.Sqrt(d2+softening)
			f := bodies[j].Mass * inv * inv * inv
			for d := 0; d < 3; d++ {
				acc[i][d] += f * dr[d]
			}
		}
	}
	return acc
}

// PlummerBodies builds a deterministic pseudo-random cluster.
func PlummerBodies(n int, seed uint32) []Body {
	bodies := make([]Body, n)
	s := seed
	next := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8) / float64(1<<24)
	}
	for i := range bodies {
		for d := 0; d < 3; d++ {
			bodies[i].Pos[d] = next()*2 - 1
			bodies[i].Vel[d] = (next()*2 - 1) * 0.1
		}
		bodies[i].Mass = 1.0 / float64(n)
	}
	return bodies
}
