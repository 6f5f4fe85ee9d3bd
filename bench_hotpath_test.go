package repro

// Hot-path allocation benchmarks. The steady-state campaign loop —
// plan generation, device execution, outcome extraction,
// classification and histogram accumulation — is designed to be
// allocation-free once a Runner is warm: every buffer it needs lives
// in runner- or device-owned scratch that is reset in place each
// iteration. BenchmarkSteadyStateAllocs measures exactly that loop
// and CI fails if it ever reports a nonzero allocs/op, so an
// accidental escape or map growth on the hot path cannot land
// silently. BENCH_hotpath.json (regenerated by TestEmitHotpathBench)
// records the before/after numbers for the optimization.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/resultcache"
	"repro/internal/tuning"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// steadyVariant is one warm-runner configuration the allocation-free
// contract covers: the raw kernel path, and the WGSL-lowered path
// campaigns run for conformance and evaluate cells.
type steadyVariant struct {
	name, device, test string
	// lower applies the device's wgsl toolchain at driver.
	lower  bool
	driver wgsl.DriverVersion
}

// steadyVariants: MP unlowered on AMD; then a fenced mutant (fences to
// lower, but no disallowed outcome whose FirstViolation copy would
// allocate) through the defective AMD Vulkan driver, which drops every
// fence, and through M1's Metal backend, which keeps and folds them.
var steadyVariants = []steadyVariant{
	{name: "AMD-unlowered", device: "AMD", test: "MP"},
	{name: "AMD-Vulkan-fence-dropping", device: "AMD", test: "MP-relacq-norel", lower: true, driver: wgsl.DriverFenceDropping},
	{name: "M1-Metal", device: "M1", test: "MP-relacq-norel", lower: true, driver: wgsl.DriverConformant},
}

// warmRunner builds a Runner for the variant in the stressed PTE
// environment and runs it until every arena has grown to its working
// size and the classifier memo and histogram key set are populated.
func warmRunner(tb testing.TB, v steadyVariant) func(int, *xrand.Rand) error {
	tb.Helper()
	s := mutation.MustGenerate()
	test, ok := s.ByName(v.test)
	if !ok {
		tb.Fatalf("%s missing from suite", v.test)
	}
	prof, ok := gpu.ProfileByName(v.device)
	if !ok {
		tb.Fatalf("%s profile missing", v.device)
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := harness.NewRunner(dev, pteEnv())
	if err != nil {
		tb.Fatal(err)
	}
	if v.lower {
		r.Lower = wgsl.NewToolchain(prof, v.driver).LowerFunc()
	}
	res := &harness.Result{}
	run := func(iters int, rng *xrand.Rand) error {
		return r.RunInto(context.Background(), res, test, iters, rng)
	}
	warm := xrand.New(1)
	for i := 0; i < 8; i++ {
		if err := run(4, warm); err != nil {
			tb.Fatal(err)
		}
	}
	return run
}

// BenchmarkSteadyStateAllocs measures the warm campaign loop: a reused
// Runner and Result executing launches through RunInto, for each
// steady-state variant. Each op replays the same RNG state, so the
// measurement is the pure steady state — identical plans and outcome
// keys, no arena growth and no first-sight map inserts (a genuinely
// novel outcome key still costs one amortized map entry; that is by
// design and not steady-state cost). The CI bench gate requires 0
// allocs/op in every variant.
func BenchmarkSteadyStateAllocs(b *testing.B) {
	for _, v := range steadyVariants {
		b.Run(v.name, func(b *testing.B) { benchSteadyState(b, v) })
	}
}

// benchSteadyState is one BenchmarkSteadyStateAllocs variant.
func benchSteadyState(b *testing.B, v steadyVariant) {
	run := warmRunner(b, v)
	rng := xrand.New(1)
	state := *rng
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*rng = state
		if err := run(4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateZeroAllocs asserts the allocation-free contract under
// plain `go test`, so tier-1 catches hot-path regressions even when
// the benchmarks are not run.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, v := range steadyVariants {
		t.Run(v.name, func(t *testing.T) {
			run := warmRunner(t, v)
			rng := xrand.New(1)
			state := *rng
			allocs := testing.AllocsPerRun(20, func() {
				*rng = state
				if err := run(2, rng); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm RunInto: %v allocs/run, want 0", allocs)
			}
		})
	}
}

// benchTuneCampaign is a small-but-nontrivial tuning sweep shared by
// the result-cache benchmarks: 2 environment families × 3 mutants on
// one device, enough cells that the warm/cold gap measures cache
// effectiveness rather than fixed campaign overhead.
func benchTuneCampaign(tb testing.TB) (tuning.Config, []*litmus.Test) {
	tb.Helper()
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, name := range []string{"CoRR-mutant", "MP", "SB"} {
		test, ok := suite.ByName(name)
		if !ok {
			tb.Fatalf("%s missing from suite", name)
		}
		tests = append(tests, test)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 6
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD"}
	return cfg, tests
}

// BenchmarkTuneColdNoCache is the uncached baseline: every cell runs
// through the simulator. Its ratio to BenchmarkTuneWarmCache is the
// result cache's headline saving.
func BenchmarkTuneColdNoCache(b *testing.B) {
	cfg, tests := benchTuneCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneWarmCache measures a fully warm re-run: one cold pass
// publishes every cell, then each op serves the entire campaign from
// verified cache entries — simulation skipped, only key derivation,
// entry reads and digest checks remain.
func BenchmarkTuneWarmCache(b *testing.B) {
	cfg, tests := benchTuneCampaign(b)
	cache, err := resultcache.Open(b.TempDir(), resultcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4, Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

// calibrationSink keeps BenchmarkCalibration's work observable.
var calibrationSink uint64

// BenchmarkCalibration is a fixed CPU-bound reference workload — 4096
// xoshiro256** draws plus the float mixing the simulator's latency
// path uses — whose ns/op tracks raw machine speed. The CI ns/op gate
// divides the simulator benchmarks by this number, so a budget
// expressed as a ratio holds across runner hardware generations and
// noisy-neighbor slowdowns that scale the whole process uniformly.
func BenchmarkCalibration(b *testing.B) {
	rng := xrand.New(12345)
	var acc uint64
	var facc float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			acc += rng.Uint64()
			facc += float64(acc&0xffff) * 1.5e-5
		}
	}
	calibrationSink = acc + uint64(facc)
}

// benchLowerVulkan is internal/wgsl's BenchmarkLowerVulkan, which the
// BENCH_hotpath.json emitter cannot call across packages.
func benchLowerVulkan(b *testing.B) {
	lower := (&wgsl.Toolchain{Backend: gpu.Vulkan, Driver: wgsl.DriverFenceDropping}).LowerFunc()
	prog := make(gpu.Program, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog = prog[:0]
		for j := 0; j < 20; j++ {
			prog = append(prog, gpu.Instr{Op: gpu.OpStore, Addr: uint32(j), Imm: 1}, gpu.Instr{Op: gpu.OpFence})
		}
		prog = lower(prog)
	}
}

// hotpathNumbers is one measured point in BENCH_hotpath.json.
type hotpathNumbers struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	NsPerOp     int64 `json:"ns_per_op"`
}

// hotpathPoint is one labeled point in a benchmark's ns/op history.
type hotpathPoint struct {
	Label string `json:"label"`
	hotpathNumbers
}

// hotpathEntry pairs the pre-optimization baseline with a fresh
// measurement for one benchmark, plus the labeled trajectory across
// optimization PRs so the long-run trend stays visible.
type hotpathEntry struct {
	Name    string          `json:"name"`
	Unit    string          `json:"unit"`
	Before  *hotpathNumbers `json:"before"`
	After   hotpathNumbers  `json:"after"`
	History []hotpathPoint  `json:"history"`
	Note    string          `json:"note,omitempty"`
}

// TestEmitHotpathBench rewrites BENCH_hotpath.json with fresh "after"
// measurements next to the recorded pre-optimization baselines. It is
// gated behind EMIT_BENCH=1 so routine test runs never touch the
// committed file:
//
//	EMIT_BENCH=1 go test -run TestEmitHotpathBench -count=1 .
func TestEmitHotpathBench(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to rewrite BENCH_hotpath.json")
	}
	// measure keeps the run with the median ns/op of five: a single
	// testing.Benchmark run swings by ±20% on a shared host.
	measure := func(fn func(*testing.B)) hotpathNumbers {
		runs := make([]hotpathNumbers, 5)
		for i := range runs {
			r := testing.Benchmark(fn)
			runs[i] = hotpathNumbers{
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				NsPerOp:     r.NsPerOp(),
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
		return runs[len(runs)/2]
	}
	steadyRuns := map[string]hotpathNumbers{}
	for _, v := range steadyVariants {
		steadyRuns[v.name] = measure(func(b *testing.B) { benchSteadyState(b, v) })
	}
	steady := steadyRuns["AMD-unlowered"]
	fig4 := measure(BenchmarkFig4PTEAssignment)
	bugDiscovery := measure(BenchmarkBugDiscovery)
	lowerVulkan := measure(benchLowerVulkan)
	cal := measure(BenchmarkCalibration)
	tuneCold := measure(BenchmarkTuneColdNoCache)
	tuneWarm := measure(BenchmarkTuneWarmCache)
	// The lowered paths at the parent of the fused-lowering change, on
	// the same machine: medians of 6 runs alternated with the change's,
	// Calibration at 16750 ns/op over the same runs. The parent lowered
	// with 2-4 copying passes per program and built a fresh runner per
	// conformance or evaluate cell.
	const fusedLabel = "fused in-place lowering + runner pool"
	multiPass := map[string]hotpathNumbers{
		"SteadyStateAllocs/AMD-Vulkan-fence-dropping": {AllocsPerOp: 3840, BytesPerOp: 572933, NsPerOp: 2603188},
		"SteadyStateAllocs/M1-Metal":                  {AllocsPerOp: 2304, BytesPerOp: 315392, NsPerOp: 2463750},
		"BugDiscovery":                                {AllocsPerOp: 3876, BytesPerOp: 599639, NsPerOp: 2564315},
		"LowerVulkan":                                 {AllocsPerOp: 6, BytesPerOp: 2944, NsPerOp: 1577},
	}
	lowered := func(name, unit string, after hotpathNumbers, note string) hotpathEntry {
		before := multiPass[name]
		return hotpathEntry{
			Name: name, Unit: unit, Before: &before, After: after,
			History: []hotpathPoint{
				{Label: "multi-pass lowering", hotpathNumbers: before},
				{Label: fusedLabel, hotpathNumbers: after},
			},
			Note: note,
		}
	}
	// History labels name the optimization that produced each point;
	// each point was measured on that PR's builder, so compare trends,
	// not machines. "before" is always measured on the same machine as
	// "after", immediately before the PR's change.
	doc := struct {
		Schema     string         `json:"schema"`
		Go         string         `json:"go"`
		Benchmarks []hotpathEntry `json:"benchmarks"`
	}{
		Schema: "mcmutants-hotpath-bench/v2",
		Go:     runtime.Version(),
		Benchmarks: []hotpathEntry{
			{
				Name: "Fig4PTEAssignment",
				Unit: "one Run(test, 1, rng) call: fresh Result + one PTE launch",
				// Measured immediately before the data-oriented executor
				// rewrite, on the same machine as "after".
				Before: &hotpathNumbers{AllocsPerOp: 13, BytesPerOp: 721, NsPerOp: 800585},
				After:  fig4,
				History: []hotpathPoint{
					{Label: "alloc-heavy baseline", hotpathNumbers: hotpathNumbers{AllocsPerOp: 4498, BytesPerOp: 270552, NsPerOp: 1426526}},
					{Label: "scratch-reuse", hotpathNumbers: hotpathNumbers{AllocsPerOp: 20, BytesPerOp: 1335, NsPerOp: 1102618}},
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 14, BytesPerOp: 891, NsPerOp: 403673}},
					{Label: fusedLabel, hotpathNumbers: fig4},
				},
				Note: "remaining allocations are the fresh Result/Histogram the public Run API returns",
			},
			{
				Name:   "SteadyStateAllocs",
				Unit:   "one RunInto of 4 launches on a warm Runner with a reused Result",
				Before: &hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 4, NsPerOp: 3125589},
				After:  steady,
				History: []hotpathPoint{
					{Label: "scratch-reuse", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 12, NsPerOp: 4839242}},
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 1529026}},
					{Label: fusedLabel, hotpathNumbers: steady},
				},
				Note: "RunInto was added by the scratch-reuse optimization; the pre-change loop cost is the Fig4 alloc-heavy baseline per launch",
			},
			{
				Name:   "Calibration",
				Unit:   "4096 xoshiro256** draws + float mixing; machine-speed reference for the CI ns/op gate",
				Before: nil,
				After:  cal,
				History: []hotpathPoint{
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 14017}},
					{Label: fusedLabel, hotpathNumbers: cal},
				},
				Note: "pure reference workload, no simulator code; CI normalizes the other benchmarks' ns/op by this",
			},
			{
				Name:   "TuneWarmCache",
				Unit:   "one small tuning campaign (2 env families × 3 mutants × 1 device), every cell served from the result cache",
				Before: &tuneCold,
				After:  tuneWarm,
				History: []hotpathPoint{
					{Label: "cold (cache off)", hotpathNumbers: tuneCold},
					{Label: "warm result cache", hotpathNumbers: tuneWarm},
				},
				Note: "before = the same campaign with caching off, measured in the same emit run; the ratio is the simulation work the warm run skips",
			},
			lowered("SteadyStateAllocs/AMD-Vulkan-fence-dropping",
				"one RunInto of 4 launches of MP-relacq-norel on a warm AMD Runner lowering through the defective Vulkan driver",
				steadyRuns["AMD-Vulkan-fence-dropping"], "the lowering hook now rewrites the runner-owned programs in place; CI gates this variant at 0 allocs/op"),
			lowered("SteadyStateAllocs/M1-Metal",
				"one RunInto of 4 launches of MP-relacq-norel on a warm M1 Runner lowering through Metal",
				steadyRuns["M1-Metal"], "the lowering hook now rewrites the runner-owned programs in place; CI gates this variant at 0 allocs/op"),
			lowered("BugDiscovery",
				"one Run(MP-relacq, 4, rng) on a warm AMD Runner through the defective Vulkan driver: fresh Result + 4 lowered PTE launches",
				bugDiscovery, "remaining allocations are the fresh Result, Histogram and FirstViolation copy the public Run API returns"),
			lowered("LowerVulkan",
				"refill one 40-instruction store+fence buffer and lower it in place through the defective Vulkan driver (internal/wgsl BenchmarkLowerVulkan)",
				lowerVulkan, "before = the same loop through the parent's hook, which copied the program once per pass"),
		},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_hotpath.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Benchmarks {
		t.Logf("%s: %d allocs/op, %d B/op, %d ns/op", e.Name, e.After.AllocsPerOp, e.After.BytesPerOp, e.After.NsPerOp)
	}
}
