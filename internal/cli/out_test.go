package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOutFile(t *testing.T) {
	dir := t.TempDir()

	// An unwritable path fails at create, before anything is emitted.
	if _, err := CreateOut(filepath.Join(dir, "no-such-dir", "out.json")); err == nil ||
		!strings.Contains(err.Error(), "cannot create output file") {
		t.Fatalf("CreateOut under a missing directory = %v, want a create error", err)
	}

	// "" is off: a nil *OutFile whose Emit never calls the writer.
	off, err := CreateOut("")
	if off != nil || err != nil {
		t.Fatalf(`CreateOut("") = %v, %v, want nil, nil`, off, err)
	}
	if err := off.Emit(func(io.Writer) error { t.Error("nil OutFile called its writer"); return nil }); err != nil {
		t.Fatalf("nil Emit = %v", err)
	}

	// The file exists (empty) from create on, and holds the output after.
	path := filepath.Join(dir, "out.txt")
	o, err := CreateOut(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("after CreateOut: stat = %v, %v, want an empty file", fi, err)
	}
	if err := o.Emit(func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "hello\n" {
		t.Fatalf("file = %q, want hello", got)
	}

	// A writer error is reported with the path.
	o, err = CreateOut(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := o.Emit(func(io.Writer) error { return boom }); !errors.Is(err, boom) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Emit with a failing writer = %v, want boom wrapped with the path", err)
	}
}
