package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// confIters is kernel launches per conformance cell.
const confIters = 20

// confSoak is fleet conformance through core.Study.CheckFleetConformanceCtx,
// equivalent to `mcmutants campaign -kind conformance -envs pte -iters 20
// -fence-bug -parallel 1 -seed <seed>`: one scheduler worker, no
// checkpoint, no cache.
type confSoak struct {
	study     *core.Study
	env       harness.Params
	platforms []core.Platform
	seed      uint64
}

func (c *confSoak) setup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	study, err := core.NewStudy()
	if err != nil {
		return 0, err
	}
	gen := time.Since(t0)
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return 0, err
	}
	c.study, c.env, c.seed = study, env, seed
	c.platforms = c.platforms[:0]
	for _, p := range gpu.Profiles() {
		c.platforms = append(c.platforms, core.Platform{Device: p.ShortName, Driver: wgsl.DriverFenceDropping})
	}
	_, err = study.FleetConformanceSpec(c.platforms, seed)
	return gen, err
}

func (c *confSoak) pass(ctx context.Context, k int, _ diskio.FS, tr *tracer, parent int) (*passOut, error) {
	p := &passOut{starts: make([]time.Time, 0, 128)}
	opts := core.CampaignOptions{
		Workers:  1,
		Progress: func(string) { p.starts = append(p.starts, time.Now()) },
	}
	if tr != nil {
		opts.OnProgress = progressFinal(&p.busy)
		opts.ProgressEvery = time.Hour
	}
	job := fmt.Sprintf("pass-%d", k)
	span := tr.begin("core.CheckFleetConformanceCtx", job, parent)
	p.start = time.Now()
	reports, err := c.study.CheckFleetConformanceCtx(ctx, c.platforms, c.env, confIters, c.seed, opts)
	p.end = time.Now()
	tr.finish(span)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		cellSpans(tr, job, span, p)
	}
	var findings []core.Finding
	violations := 0
	for _, rep := range reports {
		if len(rep.Failed()) > 0 || rep.Interrupted {
			return nil, fmt.Errorf("%s: %d failed cells", rep.Platform.Device, len(rep.Failed()))
		}
		violations += len(rep.Buggy())
		findings = append(findings, rep.Findings...)
	}
	if violations == 0 {
		return nil, fmt.Errorf("the fence-dropping driver went undetected on every device")
	}
	art := &core.CampaignArtifact{Kind: "conformance", Conformance: reports}
	if p.digest, err = streamDigest(art.Encode); err != nil {
		return nil, err
	}
	p.cells = len(findings)
	for _, f := range findings {
		p.instances += f.Instances
	}
	if p.cells != len(p.starts) {
		return nil, fmt.Errorf("%d findings but %d cells started", p.cells, len(p.starts))
	}
	p.records = findings
	return p, nil
}

func (c *confSoak) nominalPass() time.Duration { return 6 * time.Second }

// runnersPerCell: conformance builds a fresh device and runner per cell.
func (c *confSoak) runnersPerCell() float64 { return 1 }

func (c *confSoak) replay(seed uint64, last *passOut) []replayCell {
	findings := last.records.([]core.Finding)
	spec, err := c.study.FleetConformanceSpec(c.platforms, c.seed)
	if err != nil {
		return nil
	}
	rng := xrand.NewFromPath(seed, "perfbench", "conformance-soak", "replay")
	n := len(c.study.Suite.Conformance)
	var out []replayCell
	for _, i := range rng.Perm(len(findings))[:confReplaySamples] {
		f := findings[i]
		pl := c.platforms[i/n]
		out = append(out, replayCell{
			key: spec.Cells[i].Key, spec: &spec, test: c.study.Suite.Conformance[i%n], env: c.env,
			device: pl.Device, bugs: pl.Bugs, driver: pl.Driver, lower: true, iters: confIters,
			want: cellRecord{instances: f.Instances, target: -1, violations: f.Violations},
		})
	}
	return out
}
