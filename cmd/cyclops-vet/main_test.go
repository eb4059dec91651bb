package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/vet"
)

func write(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSrc = "_start:\tli r8, 1\n\thalt\n"
const buggySrc = "_start:\tmov r8, r9\n\thalt\n"             // uninit error
const warnSrc = "_start:\tli r8, 1\n\tmtspr r8, 4\n\thalt\n" // arrival warning

func TestRunSeverityGate(t *testing.T) {
	dir := t.TempDir()
	clean := write(t, dir, "clean.s", cleanSrc)
	buggy := write(t, dir, "buggy.s", buggySrc)
	warn := write(t, dir, "warn.s", warnSrc)

	var out bytes.Buffer
	failed, err := run([]string{clean}, false, false, nil, &out)
	if err != nil || failed {
		t.Errorf("clean program: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean program produced output: %q", out.String())
	}

	out.Reset()
	failed, err = run([]string{buggy, clean}, false, false, nil, &out)
	if err != nil || !failed {
		t.Errorf("buggy program: failed=%v err=%v", failed, err)
	}
	if !strings.Contains(out.String(), "buggy.s:1: error: [uninit]") {
		t.Errorf("diagnostic missing file:line: %q", out.String())
	}

	out.Reset()
	if failed, _ = run([]string{warn}, false, false, nil, &out); failed {
		t.Errorf("warnings failed without -strict:\n%s", out.String())
	}
	if failed, _ = run([]string{warn}, false, true, nil, &out); !failed {
		t.Error("warnings passed under -strict")
	}
}

func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	buggy := write(t, dir, "buggy.s", buggySrc)

	var out bytes.Buffer
	failed, err := run([]string{buggy}, true, false, nil, &out)
	if err != nil || !failed {
		t.Fatalf("failed=%v err=%v", failed, err)
	}
	var diags []vet.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 || diags[0].Pass != "uninit" || diags[0].Line != 1 {
		t.Errorf("diags = %+v, want one line-1 uninit finding", diags)
	}

	// Clean input must still emit a valid (empty) array.
	out.Reset()
	clean := write(t, dir, "clean.s", cleanSrc)
	if _, err := run([]string{clean}, true, false, nil, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean JSON output = %q, want []", out.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := run([]string{filepath.Join(dir, "missing.s")}, false, false, nil, &out); err == nil {
		t.Error("missing file accepted")
	}
	// Assembly errors are reported with file:line and count as failure.
	bad := write(t, dir, "bad.s", "frobnicate r1\n")
	out.Reset()
	failed, err := run([]string{bad}, false, false, nil, &out)
	if err != nil || !failed {
		t.Errorf("failed=%v err=%v", failed, err)
	}
	if !strings.Contains(out.String(), "bad.s:1:") {
		t.Errorf("assembler error not located: %q", out.String())
	}
}

func TestParsePasses(t *testing.T) {
	if only, err := parsePasses(""); only != nil || err != nil {
		t.Errorf("parsePasses(\"\") = %v, %v; want nil, nil", only, err)
	}
	only, err := parsePasses("race, barrier")
	if err != nil || len(only) != 2 || only[0] != "race" || only[1] != "barrier" {
		t.Errorf("parsePasses = %v, %v", only, err)
	}
	if _, err := parsePasses("nosuch"); err == nil {
		t.Error("unknown pass accepted")
	}
	if _, err := parsePasses(","); err == nil {
		t.Error("empty list accepted")
	}
}

func TestListPasses(t *testing.T) {
	var out bytes.Buffer
	listPasses(&out)
	for _, p := range vet.Passes {
		if !strings.Contains(out.String(), p.ID) || !strings.Contains(out.String(), p.Doc) {
			t.Errorf("listing missing pass %q:\n%s", p.ID, out.String())
		}
	}
}

// -passes must gate the severity decision on the subset actually run:
// a program whose only error comes from uninit passes a race-only run.
func TestRunPassSubset(t *testing.T) {
	dir := t.TempDir()
	buggy := write(t, dir, "buggy.s", buggySrc)

	var out bytes.Buffer
	failed, err := run([]string{buggy}, false, false, []string{"race", "barrier", "deadlock"}, &out)
	if err != nil || failed {
		t.Errorf("conc-only run of an uninit bug: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("conc-only run produced output: %q", out.String())
	}

	out.Reset()
	failed, err = run([]string{buggy}, false, false, []string{"uninit"}, &out)
	if err != nil || !failed {
		t.Errorf("uninit-only run: failed=%v err=%v", failed, err)
	}
	if !strings.Contains(out.String(), "[uninit]") {
		t.Errorf("uninit finding missing: %q", out.String())
	}

	// The concurrency subset gates on its own: the race fixture fails
	// it, the barrier-free spr fixture passes it.
	conc := []string{"race", "barrier", "deadlock"}
	for fixture, want := range map[string]bool{"race.s": true, "spr.s": false} {
		out.Reset()
		path := filepath.Join("..", "..", "examples", "faulty", "vet", fixture)
		failed, err = run([]string{path}, false, false, conc, &out)
		if err != nil || failed != want {
			t.Errorf("%s under %v: failed=%v err=%v, want failed=%v\n%s", fixture, conc, failed, err, want, out.String())
		}
	}
}
