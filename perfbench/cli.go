package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/diskio"
	"repro/internal/harness"
	"repro/internal/sched"
)

// cliWorkload is a campaign driven the way a CLI verb drives it: one
// public entry call per pass, one scheduler worker, the progress hook
// the CLI installs when not -quiet.
type cliWorkload interface {
	// setup builds the pass inputs from the seed and returns how long
	// suite generation took.
	setup(seed uint64) (generate time.Duration, err error)
	// pass runs the campaign once. fs holds the pass's state; tr, when
	// non-nil, records spans under parent.
	pass(ctx context.Context, k int, fs diskio.FS, tr *tracer, parent int) (*passOut, error)
	// replay lists sampled cells of the last pass for the harness/gpu
	// split, chosen by the seed.
	replay(seed uint64, last *passOut) []replayCell
	// runnersPerCell is how many device+runner set-ups the campaign
	// makes per cell.
	runnersPerCell() float64
	// nominalPass is one pass's wall time on the reference host; it
	// sets how many passes fill --seconds.
	nominalPass() time.Duration
}

// passOut is what one campaign pass produced.
type passOut struct {
	start, end time.Time
	cells      int
	instances  int
	starts     []time.Time // each cell's start, from the progress hook
	digest     string
	busy       time.Duration // summed Progress.DeviceBusy (traced passes)
	records    any           // the pass's records, for replay sampling
}

func (p *passOut) wall() time.Duration { return p.end.Sub(p.start) }

// cellEnd is when cell i ended: with one scheduler worker each cell
// runs until the next one starts, the last until the entry call returns.
func (p *passOut) cellEnd(i int) time.Time {
	if i+1 < len(p.starts) {
		return p.starts[i+1]
	}
	return p.end
}

// cellLatencies is each cell's host time.
func (p *passOut) cellLatencies() []float64 {
	out := make([]float64, len(p.starts))
	for i, s := range p.starts {
		out[i] = p.cellEnd(i).Sub(s).Seconds()
	}
	return out
}

// minLatencySamples is the smallest sample whose p90 has minBeyond
// samples beyond it.
const minLatencySamples = 10 * minBeyond

func latencySamples(passes []*passOut) int {
	n := 0
	for _, p := range passes {
		n += len(p.starts)
	}
	return n
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// streamDigest hashes what write produces without buffering it, so
// checking an artifact adds no transient memory to the run's peak.
func streamDigest(write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runCLI measures a CLI workload: set up setupRepeats times, then run
// a fixed number of passes and check their artifacts. Untraced, it
// reports the end-to-end metrics; traced, the per-layer split of the
// traced passes.
func runCLI(ctx context.Context, w cliWorkload, o options) (Result, error) {
	var setup, generate []float64
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts on a collected heap, as in a fresh process,
		// so no collection of an earlier repeat's garbage lands inside it.
		runtime.GC()
		t0 := time.Now()
		gen, err := w.setup(o.seed)
		if err != nil {
			return Result{}, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		generate = append(generate, gen.Seconds()*1e3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: campaign state on an in-memory diskio.FS (tmpfs stand-in: no disk I/O, every fsync call still made)\n", o.workload)

	var (
		passes  []*passOut
		plain   []*passOut
		traced  []*passOut
		tfs     []*timingFS
		tr      *tracer
		roots   []int
		hitsMis [2]int64 // classifier hits and misses during traced passes
	)
	if o.trace {
		tr = newTracer()
	}
	// A run does a fixed number of passes: as many nominal pass times as
	// fit in o.seconds. A traced run adds an untraced warm-up pass 0 and
	// then alternates traced (odd) and untraced (even) passes, so the
	// tracing overhead compares passes that both run on warm state.
	n := int(o.seconds.Seconds()/w.nominalPass().Seconds() + 0.5)
	if o.trace {
		n = max(n+1, 3)
	}
	from := snapshot()
	for k := 0; k < max(n, 1) || latencySamples(passes) < minLatencySamples; k++ {
		fs := diskio.FS(newMemFS())
		var ptr *tracer
		root := noParent
		if o.trace && k%2 == 1 {
			t := newTimingFS(fs, tr, func(string) (string, string) { return "checkpoint", "" })
			tfs = append(tfs, t)
			fs, ptr = t, tr
			root = tr.begin("traced-pass", fmt.Sprintf("pass-%d", k), noParent)
			roots = append(roots, root)
		}
		h0, m0 := harness.SharedClassifier().Stats()
		p, err := w.pass(ctx, k, fs, ptr, root)
		tr.finish(root)
		if ptr != nil {
			h1, m1 := harness.SharedClassifier().Stats()
			hitsMis[0] += h1 - h0
			hitsMis[1] += m1 - m0
		}
		if err != nil {
			return Result{}, fmt.Errorf("pass %d: %w", k, err)
		}
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %d cells in %.3f s\n", k, p.cells, p.wall().Seconds())
		switch {
		case ptr != nil:
			traced = append(traced, p)
		case k > 0 || !o.trace:
			plain = append(plain, p)
		}
		if o.digests {
			fmt.Printf("%q: %q\n", o.workload, p.digest)
			return Result{}, nil
		}
	}
	to := snapshot()
	rss := peakRSSMB()

	// Correctness: every pass of one seed must produce the same artifact,
	// and the default seed's must match the recorded digest.
	var errs []string
	for i, p := range passes {
		if p.digest != passes[0].digest {
			errs = append(errs, fmt.Sprintf("pass %d artifact %s differs from pass 0 %s", i, p.digest[:12], passes[0].digest[:12]))
		}
	}
	if want, ok, err := recordedDigest(o.workload, o.seed); err != nil {
		errs = append(errs, err.Error())
	} else if ok && passes[0].digest != want {
		errs = append(errs, fmt.Sprintf("artifact %s does not match the recorded digest %s", passes[0].digest, want))
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}

	r := region{from: from, to: to, attempted: 0}
	for _, p := range passes {
		r.cells += p.cells
		r.instances += p.instances
		r.jobs += p.cells
		r.latencies = append(r.latencies, p.cellLatencies()...)
		r.attempted += p.cells
	}
	if len(errs) > 0 {
		r.bad = r.attempted
	}
	ms := newMetricSet()
	if !o.trace {
		endToEndMetrics(ms, r, setup, rss)
		ms.require(endToEnd)
	} else {
		if err := cliLayers(ms, w, o, tr, roots, plain, traced, tfs, hitsMis, generate); err != nil {
			return Result{}, err
		}
		ms.require(perLayer)
	}
	if err := ms.err(); err != nil {
		return Result{}, err
	}
	return Result{Correct: len(errs) == 0, Attempted: r.attempted, Failed: r.bad, Metrics: ms.m}, nil
}

// cliLayers derives the per-layer metrics of a traced CLI run.
func cliLayers(ms *metricSet, w cliWorkload, o options, tr *tracer, roots []int,
	plain, traced []*passOut, tfs []*timingFS, hitsMis [2]int64, generate []float64) error {
	var cells int
	var wall, busy time.Duration
	for _, p := range traced {
		cells += p.cells
		wall += p.wall()
		busy += p.busy
	}
	perCellPlain := 0.0
	for _, p := range plain {
		perCellPlain += p.wall().Seconds() / float64(p.cells)
	}
	perCellPlain /= float64(len(plain))
	perCellTraced := wall.Seconds() / float64(cells)
	ck := ioStats{}
	for _, t := range tfs {
		c := t.class("checkpoint")
		ck.Syncs += c.Syncs
		ck.Bytes += c.Bytes
		ck.Busy += c.Busy
	}
	hits, misses := float64(hitsMis[0]), float64(hitsMis[1])

	rep, err := replayAll(w.replay(o.seed, traced[len(traced)-1]))
	if err != nil {
		return err
	}
	rep.set(ms, w.runnersPerCell())

	fc := float64(cells)
	ms.set("sched.self_ms_per_cell", (wall-busy).Seconds()*1e3/fc)
	ms.set("sched.busy_ratio", busy.Seconds()/wall.Seconds())
	ms.set("sched.ckpt_write_us_per_cell", float64(ck.Busy.Nanoseconds())/1e3/fc)
	ms.set("sched.ckpt_syncs_per_cell", float64(ck.Syncs)/fc)
	ms.set("sched.ckpt_bytes_per_cell", float64(ck.Bytes)/fc)
	ms.set("harness.classify_hit_ratio", hits/(hits+misses))
	ms.set("mutation.generate_ms", median(generate))
	ms.set("trace.overhead_pct", 100*(perCellTraced-perCellPlain)/perCellPlain)
	zeroServeLayers(ms)

	// Span accounting: each traced pass is a root; what no span below a
	// root claims (encoding and hashing the artifact) is unattributed.
	spans := resolve(tr.snapshot(), roots)
	self, err := selfTimes(spans, roots)
	if err != nil {
		return err
	}
	if err := checkSelfSum(spans, self, roots); err != nil {
		return err
	}
	var unattributed time.Duration
	for _, r := range roots {
		unattributed += self[r]
	}
	ms.set("unattributed_ms_per_cell", unattributed.Seconds()*1e3/fc)
	printSelf(spans, self)
	return writeSpans(filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), spans)
}

// checkSelfSum verifies that self times plus the roots' own
// (unattributed) time add up to the roots' wall time.
func checkSelfSum(spans []Span, self map[int]time.Duration, roots []int) error {
	var sum, wall time.Duration
	for _, d := range self {
		sum += d
	}
	for _, r := range roots {
		for _, s := range spans {
			if s.ID == r {
				wall += s.dur()
			}
		}
	}
	if sum != wall {
		return fmt.Errorf("trace: self times sum to %v, traced wall is %v", sum, wall)
	}
	return nil
}

func printSelf(spans []Span, self map[int]time.Duration) {
	by := selfByName(spans, self)
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "perfbench: self %-28s %10.3f ms\n", name, by[name].Seconds()*1e3)
	}
}

// zeroServeLayers sets the serve, dist and result-cache metrics of a
// workload that has none of those layers: their true value is zero.
func zeroServeLayers(ms *metricSet) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") || strings.HasPrefix(d.name, "dist.") ||
			strings.HasPrefix(d.name, "resultcache.") {
			ms.set(d.name, 0)
		}
	}
}

// progressFinal returns an OnProgress hook keeping the final snapshot's
// summed device busy time.
func progressFinal(busy *time.Duration) func(sched.Progress) {
	return func(p sched.Progress) {
		if !p.Final {
			return
		}
		var s float64
		for _, b := range p.DeviceBusy {
			s += b
		}
		*busy = time.Duration(s * float64(time.Second))
	}
}

// cellSpans records one span per cell of a finished pass.
func cellSpans(tr *tracer, job string, parent int, p *passOut) {
	for i, s := range p.starts {
		tr.add("cell", job, parent, s, p.cellEnd(i))
	}
}
