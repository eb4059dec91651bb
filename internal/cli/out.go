// Package cli holds the helpers the cyclops commands share.
package cli

import (
	"fmt"
	"io"
	"os"
)

// OutFile is a pre-created output destination ("-" = stdout, nil = off).
type OutFile struct {
	path string
	f    *os.File
}

// CreateOut creates (truncating) the named output file immediately, so
// an unwritable path fails before the run instead of discarding its
// results afterwards. An empty path returns a nil *OutFile, which is off.
func CreateOut(path string) (*OutFile, error) {
	if path == "" {
		return nil, nil
	}
	if path == "-" {
		return &OutFile{path: path, f: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cannot create output file: %w", err)
	}
	return &OutFile{path: path, f: f}, nil
}

// Emit streams the output and closes the file; a nil receiver is off.
func (o *OutFile) Emit(fn func(io.Writer) error) error {
	if o == nil {
		return nil
	}
	if o.f == os.Stdout {
		return fn(o.f)
	}
	if err := fn(o.f); err != nil {
		o.f.Close()
		return fmt.Errorf("writing %s: %w", o.path, err)
	}
	if err := o.f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", o.path, err)
	}
	return nil
}
