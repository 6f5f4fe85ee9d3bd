package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/sched"
	"repro/internal/wgsl"
)

// Sampled cells per traced run. Conformance cells are ~15x costlier
// than the average tuning cell, hence the smaller sample.
const (
	replaySamples     = 24
	confReplaySamples = 6
)

// cellRecord is what a cell reported; target -1 means not reported.
type cellRecord struct {
	instances, target, violations int
}

// replayCell is one campaign cell to re-run outside the scheduler.
type replayCell struct {
	key    string
	spec   *sched.Spec
	test   *litmus.Test
	env    harness.Params
	device string
	bugs   gpu.Bugs
	driver wgsl.DriverVersion
	lower  bool // apply the wgsl toolchain lowering, as conformance does
	iters  int
	want   cellRecord
}

// replayTotals accumulates the split over every reproduced cell.
type replayTotals struct {
	cells, launches, instances int
	setup, kernelgen, exec     time.Duration
	runInto                    time.Duration
	kgAllocs, execAllocs       uint64
	instr, memops, ticks       int64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// newRunner builds the cell's device and runner the way the campaign
// does, returning the set-up time.
func (c *replayCell) newRunner() (*harness.Runner, time.Duration, error) {
	t0 := time.Now()
	prof, ok := gpu.ProfileByName(c.device)
	if !ok {
		return nil, 0, fmt.Errorf("unknown device %q", c.device)
	}
	dev, err := gpu.NewDevice(prof, c.bugs)
	if err != nil {
		return nil, 0, err
	}
	r, err := harness.NewRunner(dev, c.env)
	if err != nil {
		return nil, 0, err
	}
	if c.lower {
		r.Lower = wgsl.NewToolchain(prof, c.driver).LowerFunc()
	}
	return r, time.Since(t0), nil
}

// replayOne re-runs a cell twice from its first-attempt RNG stream:
// once split into harness.BuildKernel and gpu.Device.RunCtx calls per
// launch (the same draws Runner.RunInto makes), once whole through
// Runner.RunInto, whose result must reproduce the campaign's record.
// BuildKernel builds a fresh plan per call while RunInto reuses the
// runner's, and the public API cannot time RunInto's own kernel
// generation; so the classify share is RunInto time left after the
// executor, an upper bound that includes the reused-plan build.
func replayOne(ctx context.Context, c replayCell, t *replayTotals) error {
	split, setupA, err := c.newRunner()
	if err != nil {
		return err
	}
	rng := c.spec.CellRand(c.key, 0)
	var kg, ex time.Duration
	var kgAllocs, exAllocs uint64
	var instr, memops, ticks int64
	for i := 0; i < c.iters; i++ {
		m0 := mallocs()
		t0 := time.Now()
		ls, err := harness.BuildKernel(c.test, &c.env, rng)
		if err != nil {
			return err
		}
		if split.Lower != nil {
			for j, prog := range ls.Programs {
				ls.Programs[j] = split.Lower(prog)
			}
		}
		t1 := time.Now()
		m1 := mallocs()
		t2 := time.Now()
		run, err := split.Device.RunCtx(ctx, *ls, rng)
		if err != nil {
			return err
		}
		t3 := time.Now()
		m2 := mallocs()
		kg += t1.Sub(t0)
		ex += t3.Sub(t2)
		// Each ReadMemStats allocates nothing, so the deltas are the
		// calls' own allocations.
		kgAllocs += m1 - m0
		exAllocs += m2 - m1
		instr += run.Stats.Instructions
		memops += run.Stats.MemOps
		ticks += run.Stats.Ticks
	}
	whole, setupB, err := c.newRunner()
	if err != nil {
		return err
	}
	var res harness.Result
	t0 := time.Now()
	if err := whole.RunInto(ctx, &res, c.test, c.iters, c.spec.CellRand(c.key, 0)); err != nil {
		return err
	}
	runInto := time.Since(t0)
	got := cellRecord{instances: res.Instances, target: res.TargetCount, violations: res.Violations}
	if c.want.target < 0 {
		got.target = -1
	}
	if got != c.want || res.Iterations != c.iters {
		fmt.Fprintf(os.Stderr, "perfbench: replay of %s gave %+v, campaign recorded %+v: no split\n", c.key, got, c.want)
		return nil
	}
	t.cells++
	t.launches += c.iters
	t.instances += res.Instances
	t.setup += (setupA + setupB) / 2
	t.kernelgen += kg
	t.exec += ex
	t.runInto += runInto
	t.kgAllocs += kgAllocs
	t.execAllocs += exAllocs
	t.instr += instr
	t.memops += memops
	t.ticks += ticks
	return nil
}

// replayAll replays the cells and fails when none reproduces.
func replayAll(cells []replayCell) (*replayTotals, error) {
	t := &replayTotals{}
	for _, c := range cells {
		if err := replayOne(context.Background(), c, t); err != nil {
			return nil, fmt.Errorf("replay %s: %w", c.key, err)
		}
	}
	if t.cells == 0 {
		return nil, fmt.Errorf("replay: none of %d sampled cells reproduced its record", len(cells))
	}
	return t, nil
}

// set reports the harness and gpu split per launch.
func (t *replayTotals) set(ms *metricSet, runnersPerCell float64) {
	l := float64(t.launches)
	ms.set("gpu.exec_us_per_launch", us(t.exec)/l)
	ms.set("gpu.exec_allocs_per_launch", float64(t.execAllocs)/l)
	ms.set("gpu.host_ns_per_instr", float64(t.exec.Nanoseconds())/float64(t.instr))
	ms.set("gpu.instr_per_launch", float64(t.instr)/l)
	ms.set("gpu.memops_per_launch", float64(t.memops)/l)
	ms.set("gpu.sim_ticks_per_launch", float64(t.ticks)/l)
	ms.set("harness.kernelgen_us_per_launch", us(t.kernelgen)/l)
	ms.set("harness.kernelgen_allocs_per_launch", float64(t.kgAllocs)/l)
	ms.set("harness.runner_setup_us_per_cell", us(t.setup)/float64(t.cells)*runnersPerCell)
	ms.set("harness.classify_us_per_launch", us(t.runInto-t.exec)/l)
	ms.set("harness.instances_per_launch", float64(t.instances)/l)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
