// Package ray implements the raytracing workload the paper's Section 5
// names alongside molecular dynamics and linear algebra as the
// application class Cyclops targets: compute-intensive and massively
// parallel.
//
// The tracer is a classical Whitted-style renderer over spheres and a
// ground plane — primary rays, hard shadows, specular reflection —
// parallelised by scanline blocks on the direct-execution runtime. Rays
// are independent, so the kernel has no barriers at all until the final
// join: the embarrassingly-parallel end of the paper's workload spectrum,
// bounded purely by FPU sharing and scene-data cache traffic.
package ray

import (
	"fmt"
	"math"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
	"cyclops/internal/splash"
)

// Vec is a 3-component vector.
type Vec struct{ X, Y, Z float64 }

// Arithmetic helpers.
func (a Vec) Add(b Vec) Vec       { return Vec{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }
func (a Vec) Sub(b Vec) Vec       { return Vec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }
func (a Vec) Scale(s float64) Vec { return Vec{a.X * s, a.Y * s, a.Z * s} }
func (a Vec) Dot(b Vec) float64   { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }
func (a Vec) Mul(b Vec) Vec       { return Vec{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Norm returns the unit vector.
func (a Vec) Norm() Vec {
	l := math.Sqrt(a.Dot(a))
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Sphere is one scene primitive.
type Sphere struct {
	Center     Vec
	Radius     float64
	Color      Vec
	Reflective float64
}

// Scene holds the world.
type Scene struct {
	Spheres []Sphere
	Light   Vec // point light position
	Ambient float64
}

// DefaultScene builds a deterministic test world: a grid of mixed-finish
// spheres above a reflective floor (the floor is a huge sphere).
func DefaultScene(nSpheres int) *Scene {
	sc := &Scene{
		Light:   Vec{-8, 12, -4},
		Ambient: 0.1,
		Spheres: []Sphere{{
			Center: Vec{0, -1e4, 0}, Radius: 1e4 - 1,
			Color: Vec{0.7, 0.7, 0.7}, Reflective: 0.3,
		}},
	}
	seed := uint32(77)
	next := func() float64 {
		seed = seed*1664525 + 1013904223
		return float64(seed>>8) / float64(1<<24)
	}
	for i := 0; i < nSpheres; i++ {
		sc.Spheres = append(sc.Spheres, Sphere{
			Center:     Vec{next()*10 - 5, next()*2 + 0.2, next()*6 + 2},
			Radius:     0.3 + next()*0.7,
			Color:      Vec{0.2 + next()*0.8, 0.2 + next()*0.8, 0.2 + next()*0.8},
			Reflective: next() * 0.8,
		})
	}
	return sc
}

// Opts configures a render.
type Opts struct {
	splash.Config
	// Width and Height are the image size; Spheres the scene size
	// (default 16); Depth the reflection bound (default 3).
	Width, Height int
	Spheres       int
	Depth         int
	// Image, when non-nil, receives the RGB framebuffer (len W*H).
	Image []Vec
}

// Render traces the scene and returns timing plus the framebuffer.
func Render(opts Opts) (*splash.Result, []Vec, error) {
	w, h := opts.Width, opts.Height
	if w < 1 || h < 1 {
		return nil, nil, fmt.Errorf("ray: bad image %dx%d", w, h)
	}
	if opts.Threads > h {
		return nil, nil, fmt.Errorf("ray: %d threads exceed %d scanlines", opts.Threads, h)
	}
	depth := opts.Depth
	if depth == 0 {
		depth = 3
	}
	nSph := opts.Spheres
	if nSph == 0 {
		nSph = 16
	}
	scene := DefaultScene(nSph)

	mach, err := opts.Config.Machine()
	if err != nil {
		return nil, nil, err
	}
	// Scene data lives in the chip-wide shared cache; the framebuffer is
	// written through per-pixel, and is on the chip before on the host.
	eaScene, err := splash.AllocShared(mach, 64, len(scene.Spheres))
	if err != nil {
		return nil, nil, err
	}
	eaImg, err := splash.AllocShared(mach, 32, w, h)
	if err != nil {
		return nil, nil, err
	}
	img := make([]Vec, w*h)
	T := opts.Threads

	err = mach.SpawnN(T, func(t *perf.T, p int) {
		lo, hi := splash.Span(h, p, T)
		tr := tracer{scene: scene, t: t, eaScene: eaScene, depth: depth}
		for y := lo; y < hi; y++ {
			for x := 0; x < w; x++ {
				// Camera ray through the pixel.
				u := (float64(x)+0.5)/float64(w)*2 - 1
				v := 1 - (float64(y)+0.5)/float64(h)*2
				dir := Vec{u * float64(w) / float64(h), v, 1}.Norm()
				img[y*w+x] = tr.trace(Vec{0, 1.5, -4}, dir, depth)
			}
			// One framebuffer store per pixel of the scanline.
			t.StoreBlock(eaImg+uint32(32*y*w), w, 8, 32)
			t.Work(6 * w) // per-pixel camera setup
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, nil, err
	}
	if opts.Image != nil {
		copy(opts.Image, img)
	}
	res := splash.NewResult("Ray", fmt.Sprintf("%dx%d image", w, h), opts.Threads, mach)
	return res, img, nil
}

// tracer carries per-thread state for timed tracing.
type tracer struct {
	scene   *Scene
	t       *perf.T
	eaScene uint32
	depth   int
}

// trace returns the color along one ray, charging timing as it goes.
func (tr *tracer) trace(origin, dir Vec, depth int) Vec {
	// Intersection test against every sphere: loads of scene records
	// plus ~10 multiply-add-class ops per test, one sqrt per candidate.
	n := len(tr.scene.Spheres)
	tr.t.LoadBlock(tr.eaScene, n, 8, 64)
	tr.t.FPBlock(isa.PipeBoth, 10*n)

	idx, hitT := tr.nearest(origin, dir)
	if idx < 0 {
		// Sky gradient.
		k := 0.5 * (dir.Y + 1)
		return Vec{0.6, 0.7, 1.0}.Scale(k).Add(Vec{1, 1, 1}.Scale(0.2 * (1 - k)))
	}
	tr.t.FSqrt() // the accepted hit's root

	s := &tr.scene.Spheres[idx]
	hit := origin.Add(dir.Scale(hitT))
	normal := hit.Sub(s.Center).Norm()

	// Shadow ray: another full intersection pass.
	toLight := tr.scene.Light.Sub(hit)
	lightDist := math.Sqrt(toLight.Dot(toLight))
	ldir := toLight.Scale(1 / lightDist)
	tr.t.LoadBlock(tr.eaScene, n, 8, 64)
	tr.t.FPBlock(isa.PipeBoth, 10*n)
	shadowIdx, shadowT := tr.nearest(hit.Add(normal.Scale(1e-6)), ldir)
	lit := shadowIdx < 0 || shadowT > lightDist

	// Shading: ~20 flops.
	tr.t.FPBlock(isa.PipeBoth, 20)
	shade := tr.scene.Ambient
	if lit {
		if d := normal.Dot(ldir); d > 0 {
			shade += d
		}
	}
	color := s.Color.Scale(shade)

	if s.Reflective > 0 && depth > 1 {
		refl := dir.Sub(normal.Scale(2 * dir.Dot(normal)))
		bounce := tr.trace(hit.Add(normal.Scale(1e-6)), refl, depth-1)
		color = color.Scale(1 - s.Reflective).Add(bounce.Mul(s.Color).Scale(s.Reflective))
	}
	return color
}

// nearest returns the closest intersecting sphere index and distance
// (functional math only; timing is charged by the caller).
func (tr *tracer) nearest(origin, dir Vec) (int, float64) {
	best := -1
	bestT := math.Inf(1)
	for i := range tr.scene.Spheres {
		s := &tr.scene.Spheres[i]
		oc := origin.Sub(s.Center)
		b := oc.Dot(dir)
		c := oc.Dot(oc) - s.Radius*s.Radius
		disc := b*b - c
		if disc <= 0 {
			continue
		}
		sq := math.Sqrt(disc)
		t0 := -b - sq
		if t0 > 1e-9 && t0 < bestT {
			best, bestT = i, t0
			continue
		}
		t1 := -b + sq
		if t1 > 1e-9 && t1 < bestT {
			best, bestT = i, t1
		}
	}
	return best, bestT
}

// Checksum folds a framebuffer into a stable fingerprint for tests.
func Checksum(img []Vec) float64 {
	var s float64
	for i, p := range img {
		s += (p.X + 2*p.Y + 3*p.Z) * float64(i%97+1)
	}
	return s
}
