package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/diskio"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/tuning"
	"repro/internal/xrand"
)

// tuneGridSeed fixes the tuning study's environment grid at the CLI
// default. The grid's cost swings about 3x between grid seeds (random
// thread counts and stress depths), which would swamp any regression
// bound, so the workload seed permutes the mutants instead: every seed
// runs the same 1792 cells in a different order, with a different spec
// manifest, checkpoint and dataset.
const tuneGridSeed = 2023

// tuneSweep is the §5.1 tuning study at SmallConfig scale through
// tuning.RunCampaignCtx, with the CLI tune defaults: one scheduler
// worker, checkpoint on, result cache off.
type tuneSweep struct {
	cfg     tuning.Config
	mutants []*litmus.Test
}

func (t *tuneSweep) setup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	suite, err := mutation.Generate()
	if err != nil {
		return 0, err
	}
	gen := time.Since(t0)
	rng := xrand.NewFromPath(seed, "perfbench", "tune-sweep")
	t.mutants = make([]*litmus.Test, len(suite.Mutants))
	for i, j := range rng.Perm(len(suite.Mutants)) {
		t.mutants[i] = suite.Mutants[j]
	}
	t.cfg = tuning.SmallConfig()
	t.cfg.Seed = tuneGridSeed
	_, err = tuning.CampaignSpec(t.cfg, t.mutants)
	return gen, err
}

func (t *tuneSweep) pass(ctx context.Context, k int, fs diskio.FS, tr *tracer, parent int) (*passOut, error) {
	p := &passOut{starts: make([]time.Time, 0, 2048)}
	opts := tuning.RunOptions{
		Workers:        1,
		CheckpointPath: fmt.Sprintf("state/tune-%d.ckpt", k),
		FS:             fs,
		Progress:       func(string) { p.starts = append(p.starts, time.Now()) },
	}
	if tr != nil {
		opts.OnProgress = progressFinal(&p.busy)
		opts.ProgressEvery = time.Hour
	}
	job := fmt.Sprintf("pass-%d", k)
	span := tr.begin("tuning.RunCampaignCtx", job, parent)
	p.start = time.Now()
	ds, err := tuning.RunCampaignCtx(ctx, t.cfg, t.mutants, opts)
	p.end = time.Now()
	tr.finish(span)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		cellSpans(tr, job, span, p)
	}
	if ds.Interrupted || ds.StorageDegraded || len(ds.Dropped) > 0 {
		return nil, fmt.Errorf("tuning dataset incomplete: %d dropped, interrupted=%v, storage degraded=%v",
			len(ds.Dropped), ds.Interrupted, ds.StorageDegraded)
	}
	if p.digest, err = streamDigest(ds.Save); err != nil {
		return nil, err
	}
	p.cells = len(ds.Records)
	for _, r := range ds.Records {
		p.instances += r.Instances
	}
	if p.cells != len(p.starts) {
		return nil, fmt.Errorf("%d records but %d cells started", p.cells, len(p.starts))
	}
	p.records = ds.Records
	return p, nil
}

func (t *tuneSweep) nominalPass() time.Duration { return 10 * time.Second }

// runnersPerCell: each worker keeps one warm runner per (device,
// environment), and the env-major cell order visits each pair once.
func (t *tuneSweep) runnersPerCell() float64 {
	return 1 / float64(len(t.mutants))
}

func (t *tuneSweep) replay(seed uint64, last *passOut) []replayCell {
	recs := last.records.([]tuning.Record)
	spec, err := tuning.CampaignSpec(t.cfg, t.mutants)
	if err != nil {
		return nil
	}
	byName := map[string]*litmus.Test{}
	for _, m := range t.mutants {
		byName[m.Name] = m
	}
	rng := xrand.NewFromPath(seed, "perfbench", "tune-sweep", "replay")
	var out []replayCell
	for _, i := range rng.Perm(len(recs))[:replaySamples] {
		r := recs[i]
		out = append(out, replayCell{
			key: spec.Cells[i].Key, spec: &spec, test: byName[r.Test], env: r.Env,
			device: r.Device, iters: r.Iterations,
			want: cellRecord{instances: r.Instances, target: r.TargetCount, violations: r.Violations},
		})
	}
	return out
}
