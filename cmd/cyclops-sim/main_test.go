package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const helloSrc = `
	li  a0, 1
	li  a1, 'k'
	syscall
	li  a0, 0
	syscall
`

// writeProgram puts src in a fresh directory as p.s and returns its path.
func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCaptured runs the program at path under o and returns what it
// printed to stdout (console output, -trace dump, -stats tables).
func runCaptured(t *testing.T, path string, o options) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run(path, o)
	os.Stdout = stdout
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

func TestRunSourceWithStatsAndTrace(t *testing.T) {
	src := writeProgram(t, helloSrc)
	dir := filepath.Dir(src)
	printed := runCaptured(t, src, options{maxCycles: 100000, stats: true, trace: 8})
	// A lone thread unit runs inline from its one batch to its exit, whose
	// compaction is the one rebuild; each syscall ends a block, and is the
	// one instruction here without a specialized body. The program stores
	// nothing, so the one page of memory with host storage behind it is the
	// one its image was loaded into.
	want := "host: block_compiles=2 block_flushes=0 generic=2(syscall=2) sched_batches=1 sched_units=1 sched_overflow=0 sched_rebuilds=1 parks=0 wakes=0 parked_attempts=0 phantom_cycles=0 mem_backed=16384/8388608\n"
	if !strings.Contains(printed, want) {
		t.Errorf("-stats output lacks %q:\n%s", want, printed)
	}
	if err := run(src, options{maxCycles: 100000, balanced: true}); err != nil {
		t.Fatal(err)
	}
	// -stats-json and -trace-out write well-formed files.
	statsPath := filepath.Join(dir, "stats.json")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(src, options{maxCycles: 100000, statsJSON: statsPath, traceOut: tracePath}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{statsPath, tracePath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]interface{}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s: not valid JSON: %v", filepath.Base(p), err)
		}
	}
}

// TestStatsOneThread: -stats of a 1-thread program on the 128-unit chip
// lists the one unit that ran and reads the 127 never started as idle in
// every total, with or without a profiler and timeline attached, byte for
// byte as testdata/stats_one_thread.golden pins it (written when every unit
// was built up front). The section ends at the host: line; a profiler's
// report follows it.
func TestStatsOneThread(t *testing.T) {
	src := writeProgram(t, helloSrc)
	dir := filepath.Dir(src)
	want, err := os.ReadFile("testdata/stats_one_thread.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ prof, timeline bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		o := options{maxCycles: 100000, stats: true}
		if c.prof {
			o.profileOut, o.sampleEvery = filepath.Join(dir, "prof.pb.gz"), 1
		}
		if c.timeline {
			o.timelineOut, o.timelineEvery = filepath.Join(dir, "tl.csv"), 16
		}
		printed := runCaptured(t, src, o)
		end := strings.Index(printed, "\nhost: ")
		if end < 0 {
			t.Fatalf("no host: line:\n%s", printed)
		}
		got := printed[:end+1+strings.IndexByte(printed[end+1:], '\n')+1]
		if got != string(want) {
			t.Errorf("profiler %v, timeline %v: -stats printed\n%s\nwant\n%s", c.prof, c.timeline, got, want)
		}
	}
}

// TestTraceWithTraceOut: -trace N beside -trace-out prints the last N
// issues and still writes every issue to the Chrome trace; the ring is
// sized for the file, not for N.
func TestTraceWithTraceOut(t *testing.T) {
	src := writeProgram(t, helloSrc)
	tracePath := filepath.Join(filepath.Dir(src), "trace.json")
	printed := runCaptured(t, src, options{maxCycles: 100000, trace: 2, traceOut: tracePath})
	if !strings.Contains(printed, " 5 instructions,") {
		t.Fatalf("the program no longer issues 5 instructions:\n%s", printed)
	}
	if n := strings.Count(printed, "  t002  "); n != 2 {
		t.Errorf("-trace 2 printed %d entries, want 2:\n%s", n, printed)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"ph":"X"`)); n != 5 {
		t.Errorf("Chrome trace holds %d issues, want all 5:\n%s", n, data)
	}
}

// branchySrc exits without ever taking its branch: the block at never is
// a leader of the static CFG that no thread reaches.
const branchySrc = `
	li  r8, 1
	beq r8, r0, never
	li  a0, 0
	syscall
never:	li  a0, 1
	li  a1, 'x'
	syscall
	li  a0, 0
	syscall
`

// TestBlockCompilesCountsBlocksThatRan: blocks are compiled when a thread
// first reaches them, so block_compiles is the two that ran, not the four
// the program's text holds.
func TestBlockCompilesCountsBlocksThatRan(t *testing.T) {
	printed := runCaptured(t, writeProgram(t, branchySrc), options{maxCycles: 100000, stats: true})
	if want := "host: block_compiles=2 "; !strings.Contains(printed, want) {
		t.Errorf("-stats output lacks %q:\n%s", want, printed)
	}
}

func TestRunImageFile(t *testing.T) {
	// Build a .cyc with the assembler command's writer, then run it.
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	os.WriteFile(src, []byte("halt\n"), 0o644)
	// Assemble inline to avoid depending on the other command.
	data, _ := os.ReadFile(src)
	_ = data
	if err := run(src, options{maxCycles: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFailures(t *testing.T) {
	if err := run("/nonexistent.s", options{maxCycles: 1000}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	spin := filepath.Join(dir, "spin.s")
	os.WriteFile(spin, []byte("x:\tb x\n"), 0o644)
	if err := run(spin, options{maxCycles: 2000}); err == nil {
		t.Error("cycle-limit overrun not reported")
	}
}

// TestOutputFilesCreatedUpFront pins the fix for silently losing results:
// an uncreatable output path must fail before the simulation runs, and
// the error must name the problem.
func TestOutputFilesCreatedUpFront(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "no-such-dir", "out.json")
	fields := []struct {
		name string
		o    options
	}{
		{"stats-json", options{maxCycles: 100000, statsJSON: bad}},
		{"trace-out", options{maxCycles: 100000, traceOut: bad}},
		{"profile-out", options{maxCycles: 100000, profileOut: bad, sampleEvery: 64}},
		{"timeline-out", options{maxCycles: 100000, timelineOut: bad, timelineEvery: 64}},
	}
	for _, f := range fields {
		err := run(src, f.o)
		if err == nil {
			t.Fatalf("%s: uncreatable path accepted", f.name)
		}
		if !strings.Contains(err.Error(), "cannot create output file") {
			t.Errorf("%s: unclear error %q", f.name, err)
		}
	}
	// The valid-path case truncates any stale content up front.
	stale := filepath.Join(dir, "stats.json")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(src, options{maxCycles: 100000, statsJSON: stale}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("stale")) {
		t.Error("stale output not truncated")
	}
}

// TestProfileAndTimelineOutputs runs with the profiler attached and
// checks the pprof and timeline artifacts.
func TestProfileAndTimelineOutputs(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pb := filepath.Join(dir, "prof.pb.gz")
	tlJSON := filepath.Join(dir, "tl.json")
	o := options{
		maxCycles: 100000, profileOut: pb, sampleEvery: 1,
		timelineOut: tlJSON, timelineEvery: 16,
	}
	if err := run(src, o); err != nil {
		t.Fatal(err)
	}
	// The profile is a well-formed gzip stream with content.
	f, err := os.Open(pb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("profile empty or unreadable: %d bytes, %v", len(raw), err)
	}
	// The timeline JSON decodes to interval rows.
	data, err := os.ReadFile(tlJSON)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("timeline not JSON: %v", err)
	}
	if len(rows) == 0 {
		t.Error("timeline has no rows")
	}
	// CSV flavor: anything not ending in .json.
	tlCSV := filepath.Join(dir, "tl.csv")
	o.timelineOut = tlCSV
	o.profileOut = ""
	if err := run(src, o); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(tlCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csv, []byte("cycle,run,stall")) {
		t.Errorf("timeline CSV header missing: %q", csv[:min(40, len(csv))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
