package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json holds, for the default seed, the SHA-256 of each CLI
// workload's artifact and of every serve-mix job's canonical report,
// keyed "tenant/index". Regenerate with --print-digests after a change
// that is meant to alter artifacts.
//
//go:embed digests.json
var digestsJSON []byte

type recorded struct {
	Tune        string            `json:"tune-sweep"`
	Conformance string            `json:"conformance-soak"`
	Serve       map[string]string `json:"serve-mix"`
}

// recordedDigests returns the recorded digests, or nil when the seed is
// not the default one.
func recordedDigests(seed uint64) (*recorded, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var r recorded
	if err := json.Unmarshal(digestsJSON, &r); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &r, nil
}

// recordedDigest returns the recorded artifact digest of a CLI workload.
func recordedDigest(workload string, seed uint64) (string, bool, error) {
	r, err := recordedDigests(seed)
	if r == nil || err != nil {
		return "", false, err
	}
	d := map[string]string{"tune-sweep": r.Tune, "conformance-soak": r.Conformance}[workload]
	return d, d != "", nil
}
