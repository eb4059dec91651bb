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
// memory system's single-access and run paths, the data cache's tag probe
// and the direct-execution runtime's event queue.
var hotFuncs = regexp.MustCompile(`^cyclops/internal/(` +
	`sim\.\(\*Machine\)\.(stepBlock|runBlock)` +
	`|sim\.mk[A-Za-z0-9]+\.func1` +
	`|cache\.\(\*System\)\.(Load|Store|loadRun|storeRun)` +
	`|cache\.\(\*DCache\)\.probe` +
	`|perf\.\(\*eventQueue\)\.pop` +
	`)$`)

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
`
	// runBlock stayed put and mkLD.func1 moved by a whole block; stepBlock,
	// mkSD.func1, Load, storeRun and pop moved inside one; probe is gone
	// (inlined) from the change; the clone, the second closure, LoadRun
	// and a data symbol are not hot.
	want := []string{
		"cyclops/internal/cache.(*DCache).probe: only in the parent, at 0x4f0900 (0 mod 64)",
		"cyclops/internal/cache.(*System).Load: 0x4f0160 -> 0x4f0180 (32 -> 0 mod 64)",
		"cyclops/internal/cache.(*System).storeRun: 0x4f0500 -> 0x4f0520 (0 -> 32 mod 64)",
		"cyclops/internal/perf.(*eventQueue).pop: 0x520000 -> 0x520008 (0 -> 8 mod 64)",
		"cyclops/internal/sim.(*Machine).stepBlock: 0x504a40 -> 0x504a60 (0 -> 32 mod 64)",
		"cyclops/internal/sim.mkSD.func1: 0x50b400 -> 0x50b420 (0 -> 32 mod 64)",
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
