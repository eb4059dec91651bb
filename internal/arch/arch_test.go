package arch

import (
	"math"
	"testing"
)

func TestDefaultConfigMatchesTable2(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Unit counts from the lower half of Table 2.
	if c.Threads != 128 {
		t.Errorf("Threads = %d, want 128", c.Threads)
	}
	if c.Quads() != 32 {
		t.Errorf("Quads = %d, want 32 (one FPU + D-cache each)", c.Quads())
	}
	if c.ICaches() != 16 {
		t.Errorf("ICaches = %d, want 16", c.ICaches())
	}
	if c.MemBanks != 16 || c.MemBankBytes != 512<<10 {
		t.Errorf("memory = %d banks x %d B, want 16 x 512 KB", c.MemBanks, c.MemBankBytes)
	}
	if got := c.MemBytes(); got != 8<<20 {
		t.Errorf("MemBytes = %d, want 8 MB", got)
	}
	if c.DCacheBytes != 16<<10 || c.DCacheAssoc != 8 || c.DCacheLine != 64 {
		t.Errorf("D-cache = %d B %d-way %d B lines, want 16 KB 8-way 64 B", c.DCacheBytes, c.DCacheAssoc, c.DCacheLine)
	}
	if c.ICacheBytes != 32<<10 || c.ICacheAssoc != 8 || c.ICacheLine != 32 {
		t.Errorf("I-cache = %d B %d-way %d B lines, want 32 KB 8-way 32 B", c.ICacheBytes, c.ICacheAssoc, c.ICacheLine)
	}
	if c.WorkerThreads() != 126 {
		t.Errorf("WorkerThreads = %d, want 126 (two reserved for the system)", c.WorkerThreads())
	}

	// Instruction latencies from the upper half of Table 2.
	l := c.Latencies
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"branch exec", l.BranchExec, 2},
		{"int mul latency", l.IntMulLatency, 5},
		{"int div exec", l.IntDivExec, 33},
		{"fp latency", l.FPLatency, 5},
		{"fp div exec", l.FPDivExec, 30},
		{"fp sqrt exec", l.FPSqrtExec, 56},
		{"fma latency", l.FMALatency, 9},
		{"local hit", l.LocalHitLatency, 6},
		{"local miss", l.LocalMissLatency, 24},
		{"remote hit", l.RemoteHitLatency, 17},
		{"remote miss", l.RemoteMissLatency, 36},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

func TestDerivedPeaks(t *testing.T) {
	c := Default()
	// Section 2.1: 64 bytes every 12 cycles, 16 banks -> 42.7 GB/s.
	if got := c.PeakMemBandwidth() / 1e9; math.Abs(got-42.7) > 0.1 {
		t.Errorf("PeakMemBandwidth = %.2f GB/s, want ~42.7", got)
	}
	// Section 2.1: 8 bytes per cycle, 32 caches -> 128 GB/s.
	if got := c.PeakCacheBandwidth() / 1e9; math.Abs(got-128) > 0.1 {
		t.Errorf("PeakCacheBandwidth = %.2f GB/s, want 128", got)
	}
	// Section 2: 1 GFlops per FPU, 32 FPUs.
	if got := c.PeakFlops() / 1e9; math.Abs(got-32) > 0.1 {
		t.Errorf("PeakFlops = %.2f GFlops, want 32", got)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero threads", func(c *Config) { c.Threads = 0 }},
		{"threads not multiple of quad", func(c *Config) { c.Threads = 126 }},
		{"quads not multiple of icache share", func(c *Config) { c.QuadsPerICache = 3 }},
		{"non power-of-two banks", func(c *Config) { c.MemBanks = 12 }},
		{"zero bank bytes", func(c *Config) { c.MemBankBytes = 0 }},
		{"memory exceeds 24-bit space", func(c *Config) { c.MemBankBytes = 2 << 20 }},
		{"non power-of-two dcache line", func(c *Config) { c.DCacheLine = 48 }},
		{"dcache not line multiple", func(c *Config) { c.DCacheBytes = 1000 }},
		{"assoc does not divide lines", func(c *Config) { c.DCacheAssoc = 7 }},
		{"icache geometry broken", func(c *Config) { c.ICacheBytes = 1000 }},
		{"burst smaller than line", func(c *Config) { c.MemBurstBytes = 32 }},
		{"reserved >= threads", func(c *Config) { c.ReservedThreads = 128 }},
		{"too many barriers", func(c *Config) { c.Barriers = 5 }},
		{"offchip not block multiple", func(c *Config) { c.OffChipBytes = 1500 }},
		{"offchip beyond the paper's 2 GB", func(c *Config) { c.OffChipBytes = 2<<30 + 1<<10 }},
		{"offchip of a terabyte", func(c *Config) { c.OffChipBytes = 1 << 40 }},
		{"offchip block of zero", func(c *Config) { c.OffChipBytes, c.OffChipBlock = 1<<20, 0 }},
		{"offchip block larger than embedded memory", func(c *Config) { c.OffChipBytes, c.OffChipBlock = 1<<30, 1<<30 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	c := Default()
	if q := c.QuadOf(0); q != 0 {
		t.Errorf("QuadOf(0) = %d, want 0", q)
	}
	if q := c.QuadOf(127); q != 31 {
		t.Errorf("QuadOf(127) = %d, want 31", q)
	}
	if ic := c.ICacheOf(7); ic != 0 {
		t.Errorf("ICacheOf(7) = %d, want 0 (quads 0,1 share I-cache 0)", ic)
	}
	if ic := c.ICacheOf(8); ic != 1 {
		t.Errorf("ICacheOf(8) = %d, want 1", ic)
	}
	// 64-byte interleave keeps one cache line in one bank and spreads
	// consecutive lines across banks.
	if b := c.BankOf(0x00003f); b != c.BankOf(0) {
		t.Errorf("one line split across banks: %d vs %d", b, c.BankOf(0))
	}
	seen := map[int]bool{}
	for line := uint32(0); line < 16; line++ {
		seen[c.BankOf(line*64)] = true
	}
	if len(seen) != 16 {
		t.Errorf("16 consecutive lines cover %d banks, want all 16", len(seen))
	}
	// The XOR-folded interleave spreads power-of-two strides: 16 KB
	// chunk starts (the blocked-STREAM per-thread layout) must not all
	// land on one bank.
	seen = map[int]bool{}
	for t := uint32(0); t < 16; t++ {
		seen[c.BankOf(t*16<<10)] = true
	}
	if len(seen) < 8 {
		t.Errorf("16 KB-strided addresses cover only %d banks", len(seen))
	}
}
