package job_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"cyclops/internal/job"
	"cyclops/internal/sim"
)

// TestFlagsEngine drives the -engine flag the way cyclops-sim, cyclops-bench
// and cyclops-serve do: both engines resolve, and a spelling that names no
// engine — including the removed "decoded" tier — is a clean error that
// lists the valid ones rather than a fall-through to some engine.
func TestFlagsEngine(t *testing.T) {
	resolve := func(arg string) (sim.Engine, error) {
		fs := flag.NewFlagSet("cyclops-sim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		jf := job.AddFlags(fs)
		if err := fs.Parse([]string{"-engine", arg}); err != nil {
			t.Fatal(err)
		}
		eng, _, _, err := jf.Resolve()
		return eng, err
	}
	for _, e := range sim.Engines() {
		if got, err := resolve(e.String()); err != nil || got != e {
			t.Errorf("-engine %s = %v, %v", e, got, err)
		}
	}
	for _, bad := range []string{"decoded", "turbo"} {
		_, err := resolve(bad)
		if err == nil || !strings.Contains(err.Error(), "want block or legacy") {
			t.Errorf("-engine %s: error = %v, want the block-or-legacy hint", bad, err)
		}
	}
}
