//go:build ignore

// inlinecheck keeps the block engine's bodies compiled as written:
//
//	go run ./ci/inlinecheck.go
//
// The op closures of internal/sim are meant to be straight-line code, with
// the scoreboard check, ledger charge and register write inlined into each
// body. Two compiler effects have silently broken that before:
//
//   - a closure built by a small constructor that is itself inlined into
//     its caller (compileOp.mkLD.func5 rather than mkLD.func1) is compiled
//     as a clone that keeps every one-line leaf as a real CALL;
//   - a method of a package internal/sim does not import directly (the
//     memory and barrier network, reached only through core.Chip) is never
//     inlined into it.
//
// The guard collects the module's "can inline" functions from
// `go build -gcflags=cyclops/...=-m`, builds internal/sim's test binary,
// disassembles it with `go tool objdump`, and reports every CALL from a
// non-test internal/sim function to one of them. Calls to a short list of
// cold paths (coldCallees) are allowed. Exits 1 on any finding.
//
// Known and out of scope: internal/perf's per-chunk clones, such as
// (*T).LoadBlock.func1 calling Ledger.Penalty and System.LoadRun out of
// line. They pay one call per 32-access chunk, not one per instruction.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const simPkg = "cyclops/internal/sim"

// coldCallees are symbol prefixes a hot body may call out of line: traps,
// the instruction trace, the guest profiler's sampler and code watching
// at compile time.
var coldCallees = []string{
	simPkg + ".(*Machine).Trap",
	simPkg + ".(*TraceBuffer).record",
	"cyclops/internal/prof.(*TSampler).",
	"cyclops/internal/mem.(*Memory).WatchCode",
}

var canInline = regexp.MustCompile(`^(\S+\.go):\d+:\d+: can inline (\S+)`)

// tmp holds the test binary; fail removes it too.
var tmp string

func main() {
	var err error
	tmp, err = os.MkdirTemp("", "inlinecheck")
	check(err)

	// Import path of every package directory in the module.
	pkgOf := map[string]string{}
	out := run("go", "list", "-f", "{{.Dir}} {{.ImportPath}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		dir, path, _ := strings.Cut(line, " ")
		pkgOf[dir] = path
	}

	inlinable := map[string]bool{}
	out = run("go", "build", "-o", os.DevNull, "-gcflags=cyclops/...=-m", "./...")
	for _, line := range strings.Split(out, "\n") {
		sm := canInline.FindStringSubmatch(line)
		if sm == nil {
			continue
		}
		dir, err := filepath.Abs(filepath.Dir(sm[1]))
		check(err)
		if pkg, ok := pkgOf[dir]; ok {
			inlinable[pkg+"."+sm[2]] = true
		}
	}
	if len(inlinable) == 0 {
		fail("no inlinable function reported by the compiler")
	}

	bin := filepath.Join(tmp, "sim.test")
	run("go", "test", "-c", "-o", bin, "./internal/sim")
	out = run("go", "tool", "objdump", "-s", `^`+regexp.QuoteMeta(simPkg)+`\.`, bin)

	var findings []string
	caller, hot := "", false
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "TEXT" {
			caller = strings.TrimSuffix(f[1], "(SB)")
			hot = strings.HasPrefix(caller, simPkg+".") && !strings.HasSuffix(f[2], "_test.go")
			continue
		}
		if !hot || len(f) < 2 || f[len(f)-2] != "CALL" {
			continue
		}
		callee := strings.TrimSuffix(f[len(f)-1], "(SB)")
		if !inlinable[callee] || isCold(callee) {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s calls inlinable %s",
			f[0], strings.TrimPrefix(caller, simPkg+"."), strings.TrimPrefix(callee, "cyclops/internal/")))
	}
	check(sc.Err())
	sort.Strings(findings)
	for _, s := range findings {
		fmt.Println(s)
	}
	if len(findings) > 0 {
		fail(fmt.Sprintf("%d out-of-line call(s) to inlinable functions in %s", len(findings), simPkg))
	}
	os.RemoveAll(tmp)
	fmt.Printf("inlinecheck: ok (%d inlinable functions in the module)\n", len(inlinable))
}

func isCold(callee string) bool {
	for _, p := range coldCallees {
		if strings.HasPrefix(callee, p) {
			return true
		}
	}
	return false
}

// run returns a command's combined output, failing on a non-zero exit.
func run(name string, args ...string) string {
	var buf bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(buf.Bytes())
		fail(fmt.Sprintf("%s %s: %v", name, strings.Join(args, " "), err))
	}
	return buf.String()
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	if tmp != "" {
		os.RemoveAll(tmp)
	}
	fmt.Fprintln(os.Stderr, "inlinecheck:", msg)
	os.Exit(1)
}
