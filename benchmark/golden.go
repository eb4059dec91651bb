package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cyclops/internal/job"
)

// golden pins, per sizing and workload, the simulated fingerprint every
// op must reproduce. It is stamped with the simulator's semantics
// version: under another version the pins are stale and only op-to-op
// determinism and the legacy-engine oracle apply.
type golden struct {
	Semantics string                            `json:"semantics"`
	Sizes     map[string]map[string]fingerprint `json:"sizes"`
}

// benchFile names a file of the benchmark's directory.
func benchFile(name string) string {
	return filepath.Join(checkoutRoot(), "benchmark", name)
}

func loadGolden() (*golden, error) {
	data, err := os.ReadFile(benchFile("golden.json"))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// pinned returns the values pinned for a workload and whether they
// apply: "ok", "stale" (another semantics version) or "missing".
func (g *golden) pinned(name string, sz sizes) (fingerprint, string) {
	if g == nil {
		return nil, "missing"
	}
	if g.Semantics != job.SemanticsVersion {
		return nil, "stale"
	}
	fp, ok := g.Sizes[sz.name][name]
	if !ok {
		return nil, "missing"
	}
	return fp, "ok"
}

// updateGolden runs one set-up and one period of every workload at both
// sizings and rewrites golden.json with what they produced.
func updateGolden() error {
	g := golden{Semantics: job.SemanticsVersion, Sizes: map[string]map[string]fingerprint{}}
	for _, sz := range []sizes{fullSizes, quickSizes} {
		g.Sizes[sz.name] = map[string]fingerprint{}
		for _, name := range workloadNames {
			res, w, err := measure(name, sz, 1, 0, nil, passOptions{setups: 1})
			if err != nil {
				return err
			}
			w.close()
			if !res.correct() {
				return fmt.Errorf("%s: %v", name, res.errs)
			}
			g.Sizes[sz.name][name] = res.seen
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchFile("golden.json"), append(data, '\n'), 0o644)
}
