package gpu

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestReadySetsMatchRecomputed steps every fault-free golden scenario
// one tick at a time and checks, after reset and after every tick,
// that the incrementally maintained scheduler sets equal sets
// recomputed from thread state:
//
//   - warpMask: lanes with ip < ipEnd that are not parked at a barrier;
//   - readyMask: runnable lanes whose outstanding ops are below the
//     cap of their next step (MaxOutstanding for memory ops, 1 for a
//     barrier or a kept fence, unbounded for a dropped fence);
//   - cuRunnable and cuLive: per CU, the resident warps with a
//     runnable lane, and whether there is any.
//
// The stepped launches must also reproduce the golden fingerprints, so
// the checks observe exactly the executions the goldens pin.
func TestReadySetsMatchRecomputed(t *testing.T) {
	want := readGoldenFile(t, deviceGoldenPath)
	for _, sc := range goldenScenarios() {
		if sc.faults.Enabled() {
			continue // fault draws happen in RunCtx, outside the executor
		}
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			d := sc.newDevice(t)
			rng := xrand.New(sc.seed)
			var g goldenHasher
			for i := 0; i < sc.runs; i++ {
				if sc.fresh && i > 0 {
					d = sc.newDevice(t)
				}
				stepLaunch(t, d, sc.launch(i), rng, sc.traced, &g)
			}
			g.hashRNG(rng)
			if got := g.sum(); got != want[sc.name] {
				t.Errorf("stepped fingerprint %s != golden %s", got, want[sc.name])
			}
		})
	}
}

// stepLaunch runs one launch through exec.tick, checking the scheduler
// sets after every tick, and folds the outcome into g the way
// runGoldenScenario does.
func stepLaunch(t *testing.T, d *Device, spec LaunchSpec, rng *xrand.Rand, traced bool, g *goldenHasher) {
	t.Helper()
	e := d.getExec(spec, rng)
	e.tracing = traced
	checkReadySets(t, e)
	for e.retired < len(e.ip) {
		if err := e.tick(); err != nil {
			t.Fatal(err)
		}
		checkReadySets(t, e)
	}
	if traced {
		g.hashTrace(e.trace)
		e.tracing, e.trace = false, nil
	}
	g.hashResult(e.result())
}

// checkReadySets recomputes the runnable, ready and live sets from
// scratch and fails on any difference from the executor's.
func checkReadySets(t *testing.T, e *exec) {
	t.Helper()
	f := e.frame
	for w := range e.warpMask {
		var runnable, ready uint64
		for tid := f.warpStart[w]; tid < f.warpEnd[w]; tid++ {
			ip := e.ip[tid]
			if ip >= e.ipEnd[tid] || e.atBarrier[tid] {
				continue
			}
			bit := uint64(1) << uint(tid-f.warpStart[w])
			runnable |= bit
			if int64(e.outst[tid]) < stepCap(e.d, e.code[ip].op) {
				ready |= bit
			}
		}
		if e.warpMask[w] != runnable || e.readyMask[w] != ready {
			t.Fatalf("tick %d warp %d: runnable %#x ready %#x, recomputed %#x and %#x",
				e.now, w, e.warpMask[w], e.readyMask[w], runnable, ready)
		}
	}
	live := make([]uint64, len(e.cuLive))
	for c, resident := range e.cuWarps {
		n := int32(0)
		for _, w := range resident {
			if e.warpMask[w] != 0 {
				n++
			}
		}
		if e.cuRunnable[c] != n {
			t.Fatalf("tick %d CU %d: %d runnable warps, recomputed %d", e.now, c, e.cuRunnable[c], n)
		}
		if n > 0 {
			live[c>>6] |= 1 << (uint(c) & 63)
		}
	}
	for i := range live {
		if e.cuLive[i] != live[i] {
			t.Fatalf("tick %d: live CUs %#x (word %d), recomputed %#x", e.now, e.cuLive[i], i, live[i])
		}
	}
}

// stepCap is the outstanding-op cap below which a step can issue,
// derived from the device rather than the executor's decode tables.
func stepCap(d *Device, op Op) int64 {
	switch {
	case op.IsMemory():
		return int64(d.prof.MaxOutstanding)
	case op == OpFence && d.bugs.DropFences:
		return math.MaxInt64
	default:
		return 1
	}
}
