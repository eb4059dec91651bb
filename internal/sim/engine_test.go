package sim

import (
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
)

func TestParseEngine(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	// "decoded" names no engine: it must fail like any other unknown
	// spelling, not resolve to one.
	for _, bad := range []string{"turbo", "decoded"} {
		got, err := ParseEngine(bad)
		if err == nil {
			t.Fatalf("ParseEngine(%s): no error", bad)
		}
		if !strings.Contains(err.Error(), `"`+bad+`"`) || !strings.Contains(err.Error(), "want block or legacy") {
			t.Errorf("error = %v, want the flag spelling hint", err)
		}
		if got != EngineBlock {
			t.Errorf("error case returns %v, want the EngineBlock zero value", got)
		}
	}
}

func TestEngineString(t *testing.T) {
	if got := Engine(200).String(); got != "Engine(200)" {
		t.Errorf("unknown engine String = %q", got)
	}
}

func TestSetEngineAfterStartPanics(t *testing.T) {
	p, err := asm.Assemble("_start:\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(1, p.Entry); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetEngine on a started machine did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "SetEngine after Start") {
			t.Fatalf("panic = %v, want SetEngine after Start", r)
		}
	}()
	m.SetEngine(EngineLegacy)
}

// TestRunRejectsUnknownEngine pins Run's engine switch as exhaustive: a
// value outside Engines() is an error, not a silent fallback to some loop.
func TestRunRejectsUnknownEngine(t *testing.T) {
	m := New(core.MustNew(arch.Default()), nil)
	m.SetEngine(Engine(2))
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown engine Engine(2)") {
		t.Fatalf("Run with Engine(2) = %v, want an unknown-engine error", err)
	}
}
