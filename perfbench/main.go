// Command perfbench is the repository's benchmark: it runs one workload
// of the campaign stack in-process through the layers' public entry
// points, checks the outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer split) as one JSON line.
//
//	go run . --workload tune-sweep --seed 1 --seconds 10 --trace 0
//
// See NOTES.md for the workloads, metrics and noise guards.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workDir  string
	digests  bool
}

// defaultSeed is the seed whose artifact digests are recorded in
// digests.json.
const defaultSeed = 1

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 21

// runLimit bounds a run's wall time.
const runLimit = 170 * time.Second

// metricDef is a reported metric's name and unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"cells_per_s", "1/s"}, {"instances_per_s", "1/s"},
	{"cpu_ms_per_cell", "ms"}, {"allocs_per_cell", "count"}, {"alloc_bytes_per_cell", "B"},
	{"peak_rss_mb", "MB"}, {"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"}, {"job_latency_p90_s", "s"},
}

var perLayer = []metricDef{
	{"gpu.exec_us_per_launch", "us"}, {"gpu.exec_allocs_per_launch", "count"},
	{"gpu.host_ns_per_instr", "ns"}, {"gpu.instr_per_launch", "count"},
	{"gpu.memops_per_launch", "count"}, {"gpu.sim_ticks_per_launch", "count"},
	{"harness.kernelgen_us_per_launch", "us"}, {"harness.kernelgen_allocs_per_launch", "count"},
	{"harness.runner_setup_us_per_cell", "us"}, {"harness.classify_us_per_launch", "us"},
	{"harness.instances_per_launch", "count"}, {"harness.classify_hit_ratio", "ratio"},
	{"sched.self_ms_per_cell", "ms"}, {"sched.busy_ratio", "ratio"},
	{"sched.ckpt_write_us_per_cell", "us"}, {"sched.ckpt_syncs_per_cell", "count"},
	{"sched.ckpt_bytes_per_cell", "B"},
	{"resultcache.get_us", "us"}, {"resultcache.put_us", "us"},
	{"resultcache.hit_ratio", "ratio"}, {"resultcache.bytes_per_entry", "B"},
	{"serve.submit_ms", "ms"}, {"serve.report_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
	{"serve.run_overhead_ms", "ms"}, {"serve.notify_ms", "ms"}, {"serve.store_write_us", "us"},
	{"serve.store_syncs_per_job", "count"}, {"serve.sse_events_per_job", "count"},
	{"dist.acquire_ms", "ms"}, {"dist.renew_ms", "ms"}, {"dist.deliver_ms", "ms"},
	{"dist.leases_per_job", "count"}, {"dist.deliver_bytes_per_cell", "B"},
	{"mutation.generate_ms", "ms"}, {"trace.overhead_pct", "%"}, {"unattributed_ms_per_cell", "ms"},
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "tune-sweep, conformance-soak or serve-mix")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "sizes the measured work to last about this many seconds on the reference host")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/perfbench", "directory for traced-run spans and the serve workload's state directories")
	flag.BoolVar(&o.digests, "print-digests", false, "print the artifact digests of this seed for digests.json and exit")
	flag.Parse()
	if seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	// At most two busy threads, whatever the host offers, so figures
	// from hosts of different widths stay comparable.
	runtime.GOMAXPROCS(2)

	var (
		res Result
		err error
	)
	// Every run must end within 180 s; a wedged layer fails it first.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	switch o.workload {
	case "tune-sweep":
		res, err = runCLI(ctx, &tuneSweep{}, o)
	case "conformance-soak":
		res, err = runCLI(ctx, &confSoak{}, o)
	case "serve-mix":
		res, err = runServeMix(ctx, o)
	default:
		err = fmt.Errorf("unknown workload %q (tune-sweep, conformance-soak, serve-mix)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	if o.digests {
		return
	}
	emit(res)
	if !res.Correct {
		cancel()
		os.Exit(1)
	}
}

// usage is a process resource snapshot.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapshot() usage {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// region is what one measured stretch of work produced.
type region struct {
	from, to       usage
	cells          int
	instances      int
	jobs           int
	latencies      []float64
	attempted, bad int
}

// endToEndMetrics derives the end-to-end figures of a measured region.
func endToEndMetrics(ms *metricSet, r region, setup []float64, rss float64) {
	wall := r.to.at.Sub(r.from.at).Seconds()
	cells := float64(r.cells)
	ms.set("setup_s", median(setup))
	ms.set("cells_per_s", cells/wall)
	ms.set("instances_per_s", float64(r.instances)/wall)
	ms.set("cpu_ms_per_cell", float64((r.to.cpu-r.from.cpu).Microseconds())/1e3/cells)
	ms.set("allocs_per_cell", float64(r.to.mallocs-r.from.mallocs)/cells)
	ms.set("alloc_bytes_per_cell", float64(r.to.bytes-r.from.bytes)/cells)
	ms.set("peak_rss_mb", rss)
	ms.set("jobs_per_s", float64(r.jobs)/wall)
	for _, q := range []struct {
		name string
		q    float64
	}{{"job_latency_p50_s", 0.5}, {"job_latency_p90_s", 0.9}} {
		p, err := percentile(r.latencies, q.q)
		if err != nil {
			ms.errs = append(ms.errs, err.Error())
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s = %.6f s over %d samples, %d beyond\n", q.name, p.Value, p.N, p.Beyond)
		ms.set(q.name, p.Value)
	}
}
