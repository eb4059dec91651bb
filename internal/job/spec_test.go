package job_test

import (
	"encoding/json"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
)

// programSpec is a program spec exercising every defaultable field's
// input convenience (policy spelling, latency fold, duplicate outputs);
// Canonicalize does not decode the image, so a bare magic number will do.
func programSpec() *job.Spec {
	return &job.Spec{Workload: job.ProgramWorkload, Program: []byte("CYC1"), Policy: "blocked/8",
		Latency: "miss=48,rmiss=72", Outputs: []string{job.SnapshotOutput, job.SnapshotOutput}}
}

// Key-stability goldens, one per registered workload and per spelling of
// each argument enum (barrier, STREAM kernel, partition, placement,
// unroll), plus a program image: the content address of a fixed spec must
// never drift silently — a changed key orphans every existing cache
// entry. An intentional change to the key schema or the canonical
// encoding comes with new goldens here, and with a SemanticsVersion bump
// when an old key could now name a different result.
func TestKeyStability(t *testing.T) {
	must := func(s *job.Spec, err error) *job.Spec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	raw := func(workload, args string) *job.Spec {
		return &job.Spec{Workload: workload, Args: json.RawMessage(args)}
	}
	splash := func(a workloads.SplashArgs) *job.Spec { return must(workloads.SplashSpec(a)) }
	golden := []struct {
		name string
		spec *job.Spec
		want string
	}{
		{"stream-triad", must(workloads.StreamSpec(stream.Params{
			Kernel: stream.Triad, Threads: 2, N: 320, Local: true, Reps: 2,
		}, kernel.Sequential)), "173bd6a5825baa10bdb2dedbc6dab4a8f03edabbf4acfce76f981452381d0ab5"},
		{"stream-TRIAD", raw("stream", `{"kernel":"TRIAD","threads":2,"n":320,"local":true,"reps":2}`),
			"173bd6a5825baa10bdb2dedbc6dab4a8f03edabbf4acfce76f981452381d0ab5"},
		{"stream-cyclic", must(workloads.StreamSpec(stream.Params{
			Kernel: stream.Copy, Threads: 8, N: 512, Partition: stream.Cyclic,
		}, kernel.Sequential)), "804a2620b83d132f72d5f5c371f7e5fa4f3cf98c0f6bddea66c5a28d03d3549f"},
		{"stream-balanced", must(workloads.StreamSpec(stream.Params{
			Kernel: stream.Scale, Threads: 4, N: 256, Reps: 1,
		}, kernel.Balanced)), "943a459fb1ec118ca875dd434af3734aa3a898f98b2d8872443fef3fea822127"},
		{"stream-unroll4", must(workloads.StreamSpec(stream.Params{
			Kernel: stream.Add, Threads: 4, N: 256, Unroll: 4, Independent: true,
		}, kernel.Sequential)), "047ff3831b426dbd6c475df3d2ec21bd0f480e781e395cf3a1a8bd8d82c35a56"},
		{"splash-fft", splash(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256}),
			"cdfdac722ee7eea773bd34c25aac20ab81e39cd92099af5b56a72936210f1dfd"},
		{"splash-barnes", splash(workloads.SplashArgs{Kernel: "barnes", Threads: 4, Bodies: 64, Steps: 2}),
			"a96e92262f7e0f07f1174b9bb82a0178679297e4c711529d294f6f4d237d83d7"},
		{"splash-fmm", splash(workloads.SplashArgs{Kernel: "fmm", Threads: 4, Bodies: 64, Levels: 3}),
			"41392d7704a0b29402685b119b5aa89ed7a0149ba8d151b8641714fd3b86b5fe"},
		{"splash-lu-sw", splash(workloads.SplashArgs{Kernel: "lu", Threads: 4, Barrier: "sw", N: 16}),
			"32a1e1b523e093ca09a55d0e7392720544f2d3854c5ed9d14a9bdb29d9e91778"},
		{"splash-ocean", splash(workloads.SplashArgs{Kernel: "ocean", Threads: 4, N: 18, Iters: 3}), "381a7ffec8b2d7fbcae5cd90f455ab761e0302475ce31c5c73e0cc3affdc607a"},
		{"splash-radix", splash(workloads.SplashArgs{Kernel: "radix", Threads: 4, Balanced: true, N: 1024}),
			"d3845add65ee309f473d7f2ec92fd962ad66a5d449ad471da5333142d8ecd3fa"},
		{"md", must(workloads.MDSpec(workloads.MDArgs{Threads: 8, Particles: 512, Steps: 1})), "f36d3a552da365b4982ee0a3d1ed0b5f7852ab29218d4ee011492614b563548e"},
		{"ray", must(workloads.RaySpec(workloads.RayArgs{Threads: 4, Width: 16, Height: 16})), "6be78e0dc8552b5bbee063dd319ceb3abcccf2036f3addd34424289730dff714"},
		{"microbarrier", raw("microbarrier", `{"threads":8,"phases":4}`), "5e53121f6f1dc554db2a7d31b8a5b2a7320d3768ddd708a19a384d71ba18b380"},
		{"microbarrier-sw", must(workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{Threads: 8, Barrier: "sw", Phases: 4})),
			"bcec6be8c9c4a0d2b160d22cd07d2453dff29c2c0f9d8c6f680dbfcdbd460754"},
		{"program", programSpec(), "1ebb64c8beefd737f0608d6e7d3bf5747936fa727e038f1abcaa51b17bbad072"},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			key, err := g.spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			if key.String() != g.want {
				t.Errorf("key drifted:\n got %s\nwant %s\n(an intentional key-schema change needs new goldens, and a SemanticsVersion bump if an old key could now name a different result)",
					key, g.want)
			}
		})
	}
}

// Two spellings of the same run must canonicalize to the same key: the
// cache is only shared across tools if a defaulted field and its
// explicit default hash identically.
func TestEquivalentSpellingsKeyIdentically(t *testing.T) {
	terse := &job.Spec{
		Workload: "stream",
		Args:     json.RawMessage(`{"kernel":"triad","threads":2,"n":320,"local":true,"reps":2}`),
	}
	cfg := arch.Default()
	verbose := &job.Spec{
		Workload: "stream",
		Args: json.RawMessage(`{
			"n": 320, "kernel": "triad", "local": true,
			"partition": "blocked", "unroll": 1, "reps": 2,
			"placement": "sequential", "threads": 2
		}`),
		Policy: "fine",
		Config: &cfg,
	}
	tk, err := terse.Key()
	if err != nil {
		t.Fatal(err)
	}
	vk, err := verbose.Key()
	if err != nil {
		t.Fatal(err)
	}
	if tk != vk {
		t.Fatalf("equivalent spellings keyed differently:\n terse   %s\n verbose %s", tk, vk)
	}
}

func TestCanonicalizeIsIdempotent(t *testing.T) {
	spec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Scale, Threads: 2, N: 128, Reps: 2,
	}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c1.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("canonicalizing a canonical spec did not pass it through")
	}
	e1, err := json.Marshal(c1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := json.Marshal(c2)
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", e1, e2)
	}
}

// The latency convenience folds into the configuration: a spec with
// -lat-style input keys identically to one carrying the applied config.
func TestLatencyFoldsIntoConfig(t *testing.T) {
	base := func() *job.Spec {
		spec, err := workloads.StreamSpec(stream.Params{
			Kernel: stream.Add, Threads: 2, N: 128, Reps: 2,
		}, kernel.Sequential)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	viaLat := base()
	viaLat.Latency = "miss=48,rmiss=72"
	lk, err := viaLat.Key()
	if err != nil {
		t.Fatal(err)
	}

	cfg := arch.Default()
	cfg.Latencies.LocalMissLatency = 48
	cfg.Latencies.RemoteMissLatency = 72
	viaCfg := base()
	viaCfg.Config = &cfg
	ck, err := viaCfg.Key()
	if err != nil {
		t.Fatal(err)
	}
	if lk != ck {
		t.Fatalf("latency spec and pre-applied config keyed differently:\n lat %s\n cfg %s", lk, ck)
	}
	canon, err := viaLat.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Latency != "" {
		t.Fatalf("canonical spec still carries Latency %q", canon.Latency)
	}

	dk, err := base().Key()
	if err != nil {
		t.Fatal(err)
	}
	if dk == lk {
		t.Fatal("slow-miss latencies keyed the same as Table 2 defaults")
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	bad := []struct {
		name string
		spec job.Spec
		want string // substring the error must carry; "" = any error
		// accept marks a row that once was refused and now canonicalizes:
		// max_cycles means the same on every workload.
		accept bool
	}{
		{name: "unknown workload", spec: job.Spec{Workload: "nonesuch"}},
		{name: "unknown policy", spec: job.Spec{Workload: "stream", Policy: "eager",
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "unknown args field", spec: job.Spec{Workload: "stream",
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128,"warp":9}`)}},
		{name: "program image on named workload", spec: job.Spec{Workload: "stream", Program: []byte("CYC1"),
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "balanced on named workload", spec: job.Spec{Workload: "stream", Balanced: true,
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "max-cycles on named workload", spec: job.Spec{Workload: "stream", MaxCycles: 10,
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}, accept: true},
		{name: "outputs on named workload", spec: job.Spec{Workload: "stream", Outputs: []string{"snapshot"},
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "program workload without image", spec: job.Spec{Workload: "program"}},
		{name: "splash n on nbody kernel", spec: job.Spec{Workload: "splash",
			Args: json.RawMessage(`{"kernel":"barnes","threads":2,"n":64}`)}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			canon, err := tc.spec.Canonicalize()
			if tc.accept {
				if err != nil || canon.MaxCycles != tc.spec.MaxCycles {
					t.Fatalf("Canonicalize = %+v, %v; want the spec accepted as it is", canon, err)
				}
				return
			}
			if err == nil {
				t.Fatal("Canonicalize accepted the spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to carry %q", err, tc.want)
			}
		})
	}
}
