//go:build ignore

// placement prints the hot functions whose code alignment differs between
// two builds of the same program:
//
//	go run ./ci/placement.go parent.bin change.bin
//	go run ./ci/placement.go -selftest
//
// The block engine's dispatch loop, its op bodies and the memory system's
// access paths read 2-4 % slower in the benchmark when they move by 32
// bytes mod 64 with identical instructions (DESIGN section 2, "Code
// placement"). Any change to a package the linker places before
// internal/sim can do that, so before a speed difference of that size is
// read as the change's doing, compare the two benchmark binaries
// (.bench_build/benchmark in each checkout after benchmark/run.sh).
//
// Each binary's symbol table is read with `go tool nm`. For every hot
// function (hotFuncs) whose address mod 64 differs, placement prints both
// addresses and their offsets in the 64-byte block; a hot function present
// in one binary only is printed too. A hot function in neither (the
// compiler inlined every call of it) is skipped. It exits 1 when it printed
// anything, 0 when every hot function kept its alignment.
//
// -selftest runs the comparison over embedded symbol tables and checks
// that it still reports exactly the seeded moves (CI runs it, so a broken
// matcher fails loudly instead of reporting nothing).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hotFuncs matches the functions whose alignment the benchmark has been
// seen to feel: the block engine's dispatch loop and op bodies, the
// thread-unit scheduler's event queue, the memory system's single-access
// and run paths, the data cache's tag probe, the interest-group lookup
// every data access makes (arch.CacheFor), the FPU dispatch, the
// embedded memory's word accessors the load and store ops call, the
// direct-execution runtime's event queue and its memory and FP runs, and
// the benchmark binary's own calibration loop (main.reference and
// main.refStep), which every wall_s is normalised by.
var hotFuncs = regexp.MustCompile(`^(cyclops/internal/(` +
	`sim\.\(\*Machine\)\.(stepBlock|runBlock)` +
	`|sim\.mk[A-Za-z0-9]+\.func1` +
	`|sim\.\(\*eventQueue\)\.(push|popBatch|next)` +
	`|cache\.\(\*System\)\.(Load|Store|loadRun|storeRun)` +
	`|cache\.\(\*DCache\)\.probe` +
	`|arch\.CacheFor` +
	`|core\.\(\*FPU\)\.(Dispatch|DispatchRun)` +
	`|mem\.\(\*Memory\)\.(Read32|Read64|Write32|Write64)` +
	`|perf\.\(\*eventQueue\)\.pop` +
	`|perf\.\(\*T\)\.(bulk|fp)` +
	`)|main\.(reference|refStep))$`)

func main() {
	selftest := flag.Bool("selftest", false, "check the comparison against embedded symbol tables, then exit")
	flag.Parse()
	if *selftest {
		runSelftest()
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./ci/placement.go parent.bin change.bin")
		os.Exit(2)
	}
	parent, change := nm(flag.Arg(0)), nm(flag.Arg(1))
	lines := compare(hot(parent), hot(change))
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		fmt.Fprintf(os.Stderr, "placement: %d hot functions moved mod 64\n", len(lines))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "placement: every hot function kept its address mod 64")
}

// nm returns `go tool nm` of a binary.
func nm(bin string) string {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "placement: go tool nm %s: %v\n", bin, err)
		os.Exit(2)
	}
	return string(out)
}

// hot parses an nm listing ("addr type name" per line) into the addresses
// of its hot text symbols.
func hot(listing string) map[string]uint64 {
	addrs := map[string]uint64{}
	for _, line := range strings.Split(listing, "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") || !hotFuncs.MatchString(f[2]) {
			continue
		}
		a, err := strconv.ParseUint(f[0], 16, 64)
		if err != nil {
			continue
		}
		addrs[f[2]] = a
	}
	return addrs
}

// compare returns one line per hot function whose address mod 64 differs
// between parent and change, or that only one of them has, sorted by name.
func compare(parent, change map[string]uint64) []string {
	names := map[string]bool{}
	for n := range parent {
		names[n] = true
	}
	for n := range change {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var lines []string
	for _, n := range sorted {
		p, inP := parent[n]
		c, inC := change[n]
		switch {
		case !inC:
			lines = append(lines, fmt.Sprintf("%s: only in the parent, at %#x (%d mod 64)", n, p, p%64))
		case !inP:
			lines = append(lines, fmt.Sprintf("%s: only in the change, at %#x (%d mod 64)", n, c, c%64))
		case p%64 != c%64:
			lines = append(lines, fmt.Sprintf("%s: %#x -> %#x (%d -> %d mod 64)", n, p, c, p%64, c%64))
		}
	}
	return lines
}

// ---- selftest ----------------------------------------------------------

func runSelftest() {
	parent := `
  504640 T cyclops/internal/sim.(*Machine).runBlock
  504a40 T cyclops/internal/sim.(*Machine).stepBlock
  50b360 T cyclops/internal/sim.mkLD.func1
  50b400 T cyclops/internal/sim.mkSD.func1
  50b500 T cyclops/internal/sim.compileOp.mkLD.func5
  50b600 T cyclops/internal/sim.mkLD.func2
  4f0160 T cyclops/internal/cache.(*System).Load
  4f0500 T cyclops/internal/cache.(*System).storeRun
  4f0900 T cyclops/internal/cache.(*DCache).probe
  4e0000 T cyclops/internal/cache.(*System).LoadRun
  520000 T cyclops/internal/perf.(*eventQueue).pop
  530000 D cyclops/internal/sim.mkFP.func1
  540000 T cyclops/internal/sim.(*eventQueue).push
  540100 T cyclops/internal/sim.(*eventQueue).popBatch
  540200 T cyclops/internal/sim.(*eventQueue).next
  540300 T cyclops/internal/sim.(*eventQueue).rebuild
  550000 T cyclops/internal/perf.(*T).bulk
  550100 T cyclops/internal/perf.(*T).fp
  550200 T cyclops/internal/perf.(*T).bulk.func1
  560000 T main.reference
  560100 T main.refStep
  560200 T main.main
  570000 T cyclops/internal/arch.CacheFor
  570100 T cyclops/internal/core.(*FPU).Dispatch
  570200 T cyclops/internal/mem.(*Memory).Read64
  570300 T cyclops/internal/mem.(*Memory).Write64
  570400 T cyclops/internal/mem.(*Memory).WriteBank
`
	change := `
  504640 T cyclops/internal/sim.(*Machine).runBlock
  504a60 T cyclops/internal/sim.(*Machine).stepBlock
  50b3a0 T cyclops/internal/sim.mkLD.func1
  50b420 T cyclops/internal/sim.mkSD.func1
  50b520 T cyclops/internal/sim.compileOp.mkLD.func5
  50b620 T cyclops/internal/sim.mkLD.func2
  4f0180 T cyclops/internal/cache.(*System).Load
  4f0520 T cyclops/internal/cache.(*System).storeRun
  4e0020 T cyclops/internal/cache.(*System).LoadRun
  520008 T cyclops/internal/perf.(*eventQueue).pop
  530020 D cyclops/internal/sim.mkFP.func1
  540000 T cyclops/internal/sim.(*eventQueue).push
  540120 T cyclops/internal/sim.(*eventQueue).popBatch
  540200 T cyclops/internal/sim.(*eventQueue).next
  540310 T cyclops/internal/sim.(*eventQueue).rebuild
  550040 T cyclops/internal/perf.(*T).bulk
  550110 T cyclops/internal/perf.(*T).fp
  550220 T cyclops/internal/perf.(*T).bulk.func1
  560000 T main.reference
  560120 T main.refStep
  560220 T main.main
  570000 T cyclops/internal/arch.CacheFor
  570120 T cyclops/internal/core.(*FPU).Dispatch
  570240 T cyclops/internal/mem.(*Memory).Read64
  570320 T cyclops/internal/mem.(*Memory).Write64
  570420 T cyclops/internal/mem.(*Memory).WriteBank
`
	// runBlock, push, next, reference and CacheFor stayed put, and bulk,
	// mkLD.func1 and Read64 moved by a whole block; stepBlock,
	// mkSD.func1, Load, storeRun, both pops, fp, refStep, Dispatch and
	// Write64 moved inside one; probe is gone (inlined) from the change;
	// the clone, the second closure, LoadRun, rebuild, bulk's closure,
	// main.main, WriteBank and a data symbol are not hot.
	want := []string{
		"cyclops/internal/cache.(*DCache).probe: only in the parent, at 0x4f0900 (0 mod 64)",
		"cyclops/internal/cache.(*System).Load: 0x4f0160 -> 0x4f0180 (32 -> 0 mod 64)",
		"cyclops/internal/cache.(*System).storeRun: 0x4f0500 -> 0x4f0520 (0 -> 32 mod 64)",
		"cyclops/internal/core.(*FPU).Dispatch: 0x570100 -> 0x570120 (0 -> 32 mod 64)",
		"cyclops/internal/mem.(*Memory).Write64: 0x570300 -> 0x570320 (0 -> 32 mod 64)",
		"cyclops/internal/perf.(*T).fp: 0x550100 -> 0x550110 (0 -> 16 mod 64)",
		"cyclops/internal/perf.(*eventQueue).pop: 0x520000 -> 0x520008 (0 -> 8 mod 64)",
		"cyclops/internal/sim.(*Machine).stepBlock: 0x504a40 -> 0x504a60 (0 -> 32 mod 64)",
		"cyclops/internal/sim.(*eventQueue).popBatch: 0x540100 -> 0x540120 (0 -> 32 mod 64)",
		"cyclops/internal/sim.mkSD.func1: 0x50b400 -> 0x50b420 (0 -> 32 mod 64)",
		"main.refStep: 0x560100 -> 0x560120 (0 -> 32 mod 64)",
	}
	got := compare(hot(parent), hot(change))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		fmt.Fprintf(os.Stderr, "placement selftest: got\n%s\nwant\n%s\n", strings.Join(got, "\n"), strings.Join(want, "\n"))
		os.Exit(1)
	}
	if lines := compare(hot(parent), hot(parent)); len(lines) != 0 {
		fmt.Fprintf(os.Stderr, "placement selftest: a binary against itself reported %q\n", lines)
		os.Exit(1)
	}
	fmt.Println("placement selftest: ok")
}
