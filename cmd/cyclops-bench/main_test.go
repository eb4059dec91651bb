package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main itself when re-executed by benchMain, so a test can
// watch the command's exit status and output streams.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CYCLOPS_BENCH_ARGS"); ok {
		os.Args = append([]string{"cyclops-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchMain runs cyclops-bench with args in a child process and returns
// its stdout, stderr and exit code.
func benchMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "CYCLOPS_BENCH_ARGS="+strings.Join(args, " "))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// A -csv directory that cannot be created fails the command before any
// experiment runs, not after the sweep has printed its tables.
func TestCSVBadPathFailsBeforeSweeps(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := benchMain(t, "-run", "fig5c", "-parallel", "1", "-csv", filepath.Join(file, "csv"))
	if code != 1 || stdout != "" || !strings.Contains(stderr, "not a directory") {
		t.Fatalf("exit %d; want 1 with no tables\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Contains(stderr, "fig5c") {
		t.Errorf("the experiment ran before the bad path failed:\n%s", stderr)
	}
}

// No flag selects an execution engine: a result is a function of the
// chip, and the legacy oracle is reached from tests only.
func TestNoEngineFlag(t *testing.T) {
	_, stderr, code := benchMain(t, "-engine", "legacy", "-list")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -engine") {
		t.Fatalf("exit %d; want 2 with the undefined-flag error\nstderr:\n%s", code, stderr)
	}
}
