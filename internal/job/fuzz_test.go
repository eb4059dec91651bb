package job_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
)

// canonSeeds is one spec per registered workload plus TestKeyStability's
// specs, as JSON; it fails when a registered workload has no seed.
func canonSeeds(f *testing.F) [][]byte {
	f.Helper()
	must := func(s *job.Spec, err error) *job.Spec {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	specs := []*job.Spec{
		must(workloads.StreamSpec(stream.Params{Kernel: stream.Triad, Threads: 2, N: 320, Local: true, Reps: 2}, kernel.Sequential)),
		must(workloads.StreamSpec(stream.Params{Kernel: stream.Copy, Threads: 2, N: 128, Reps: 2}, kernel.Balanced)),
		must(workloads.SplashSpec(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256})),
		must(workloads.SplashSpec(workloads.SplashArgs{Kernel: "barnes", Threads: 2, Bodies: 64, Barrier: "sw"})),
		must(workloads.MDSpec(workloads.MDArgs{Threads: 8, Particles: 512, Steps: 1})),
		must(workloads.RaySpec(workloads.RayArgs{Threads: 4, Width: 16, Height: 16})),
		must(workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{Threads: 8, Barrier: "sw", Phases: 4})),
		programSpec(),
	}
	seen := map[string]bool{}
	var seeds [][]byte
	for _, s := range specs {
		seen[s.Workload] = true
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, n := range job.WorkloadNames() {
		// This package's other tests register "test-" workloads.
		if !seen[n] && !strings.HasPrefix(n, "test-") {
			f.Fatalf("registered workload %q has no seed", n)
		}
	}
	return seeds
}

// FuzzSpecCanonical decodes arbitrary bytes as a spec. Canonicalize must
// never panic, and a canonical spec is a fixed point: decoding its JSON and
// canonicalizing again gives byte-identical JSON and the same key.
func FuzzSpecCanonical(f *testing.F) {
	for _, s := range canonSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s job.Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		c1, err := s.Canonicalize()
		if err != nil {
			return
		}
		enc1, err := json.Marshal(c1)
		if err != nil {
			t.Fatal(err)
		}
		var again job.Spec
		if err := json.Unmarshal(enc1, &again); err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc1)
		}
		c2, err := again.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec rejected: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(c2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonicalizing twice changed the encoding:\n%s\n%s", enc1, enc2)
		}
		k1, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		k2, err := again.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("keys differ across canonicalization: %s, %s\n%s", k1, k2, enc1)
		}
	})
}
