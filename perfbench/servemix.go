package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/mutation"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tuning"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

const (
	tenants = 2
	// tuneMutants is the suite's mutant count: a tune job builds one
	// runner per (device, environment), shared by that many cells.
	tuneMutants = 32
	// serveReplaySamples is how many conformance cells the traced run
	// replays for the harness/gpu split.
	serveReplaySamples = 8
	// serveJobsPerSecond sizes a run: jobs per tenant is
	// seconds × serveJobsPerSecond / tenants, the rate the mix sustains
	// on the reference host, so a run does a fixed amount of work.
	serveJobsPerSecond = 16
)

// kindCycle is each tenant's repeating job sequence. Measured median
// latencies on the reference host, queueing behind the other tenant
// included: conformance and distributed conformance ~0.2 s, tune
// ~0.15 s, evaluate and cached distributed conformance ~0.05 s. That is
// a fast mode of 4 jobs in 10 and a slow mode of 6, so the p50 rank
// sits inside the slow mode and the p90 rank in its upper half, away
// from the edge between the modes.
var kindCycle = []string{"conformance", "evaluate", "dist", "conformance", "evaluate",
	"conformance", "dist-cached", "evaluate", "conformance", "tune"}

// mixJob is one job of a tenant's sequence.
type mixJob struct {
	tenant, k int
	spec      serve.JobSpec
	label     string
	root      int // the traced tenant span the job runs under

	id                   string
	t0, submitted, final time.Time
	reported             time.Time
	job                  serve.Job
	events               int
	busy                 float64 // summed device busy of the final snapshot
	report               []byte
	err                  error
}

// jobSpecs builds the tenant's first n jobs from the seed. Every spec is
// distinct (the job seed is drawn per job), and a cached distributed
// job repeats the tenant's last conformance spec, so its cells are
// served from the worker's result cache.
func jobSpecs(seed uint64, tenant, n int) []*mixJob {
	var fleet []string
	for _, p := range gpu.Profiles() {
		fleet = append(fleet, p.ShortName)
	}
	rng := xrand.NewFromPath(seed, "perfbench", "serve-mix", fmt.Sprint(tenant))
	var out []*mixJob
	var lastConf serve.JobSpec
	for k := 0; k < n; k++ {
		kind := kindCycle[k%len(kindCycle)]
		jobSeed := rng.Uint64()>>24 + 1
		dev := []string{fleet[rng.Intn(len(fleet))]}
		var js serve.JobSpec
		switch kind {
		case "conformance", "dist":
			js = serve.JobSpec{Kind: "conformance", Devices: dev, Envs: []string{"pte"}, Iters: 1, Seed: jobSeed, FenceBug: true}
			js.Distributed = kind == "dist"
			if kind == "conformance" {
				lastConf = js
			}
		case "dist-cached":
			js = lastConf
			js.Distributed = true
		case "evaluate":
			js = serve.JobSpec{Kind: "evaluate", Devices: dev, Envs: []string{"site"}, Iters: 2, Seed: jobSeed}
		case "tune":
			js = serve.JobSpec{Kind: "tune", Devices: dev, Seed: jobSeed, TuneEnvs: 1, SiteIters: 1, PTEIters: 1}
		}
		out = append(out, &mixJob{tenant: tenant, k: k, spec: js, label: kind})
	}
	return out
}

// mixServer is the in-process service under test and its dist worker.
type mixServer struct {
	dir    string
	fs     *timingFS
	base   string
	stop   context.CancelFunc
	done   chan error
	wcache sched.ResultCache

	// started carries the ID of every job the server starts, known the
	// ID of every distributed job a tenant submitted; the worker serves
	// a job once it is in both (either may come first). Sized for every
	// job of a run, so the server's log hook never blocks.
	started, known chan string
}

// startServer builds and starts one server; its Logf feeds the
// distributed worker the ID of each distributed job as it starts.
func startServer(dir string, tr *tracer, tracing *atomic.Bool) (*mixServer, error) {
	ms := &mixServer{dir: dir, started: make(chan string, 4096), known: make(chan string, 4096)}
	state, cacheDir := filepath.Join(dir, "state"), filepath.Join(dir, "cache")
	ms.fs = newTimingFS(newMemFS(), tr, classifyServePath(state, cacheDir))
	ms.fs.enabled = tracing
	srv, err := serve.New(serve.Config{
		StateDir:   state,
		Runners:    1,
		JobWorkers: 1,
		EnableDist: true,
		CacheDir:   cacheDir,
		FS:         ms.fs,
		Logf: func(format string, args ...any) {
			if !strings.HasPrefix(format, "serve: job %s running") || len(args) == 0 {
				return
			}
			if id, ok := args[0].(string); ok {
				ms.started <- id
			}
		},
	})
	if err != nil {
		return nil, err
	}
	wc, err := resultcache.Open(cacheDir, resultcache.Options{FS: ms.fs})
	if err != nil {
		return nil, err
	}
	ms.wcache = wc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	ms.stop, ms.done = stop, make(chan error, 1)
	go func() { ms.done <- srv.Run(ctx, ln) }()
	ms.base = "http://" + ln.Addr().String()
	return ms, nil
}

func (ms *mixServer) close() error {
	ms.stop()
	err := <-ms.done
	if rerr := os.RemoveAll(ms.dir); err == nil {
		err = rerr
	}
	return err
}

// classifyServePath maps a state or cache path to its storage class and
// job ID: the store names job records, checkpoints and reports by job.
func classifyServePath(state, cache string) func(string) (string, string) {
	return func(path string) (string, string) {
		if strings.HasPrefix(path, cache) {
			return "cache", ""
		}
		rel, err := filepath.Rel(state, path)
		if err != nil {
			return "other", ""
		}
		parts := strings.SplitN(rel, string(filepath.Separator), 2)
		job := ""
		if len(parts) == 2 && len(parts[1]) >= 64 {
			job = parts[1][:64]
		}
		if parts[0] == "ckpt" {
			return "checkpoint", job
		}
		return "store", job
	}
}

// distWorker serves each distributed job as it starts: it rebuilds the
// campaign from the coordinator's descriptor, like `mcmutants work`,
// and drains it with one scheduler worker.
func (ms *mixServer) distWorker(ctx context.Context, tr *tracer, tracing *atomic.Bool, st *distTotals) error {
	started, known := map[string]bool{}, map[string]bool{}
	for {
		var id string
		select {
		case <-ctx.Done():
			return nil
		case id = <-ms.started:
			started[id] = true
		case id = <-ms.known:
			known[id] = true
		}
		if !started[id] || !known[id] {
			continue
		}
		delete(started, id)
		delete(known, id)
		var ttr *tracer
		if tracing.Load() {
			ttr = tr
		}
		tt := newTimingTransport(&dist.HTTPTransport{BaseURL: ms.base, Campaign: id}, ttr, id)
		tc := &timingCache{inner: ms.wcache, tr: ttr, job: id}
		info, err := tt.Info(ctx)
		if err != nil {
			return fmt.Errorf("dist worker: %s: %w", id, err)
		}
		var ws core.WorkSpec
		if err := json.Unmarshal(info.Descriptor, &ws); err != nil {
			return fmt.Errorf("dist worker: %s: descriptor: %w", id, err)
		}
		units, err := core.DistWorkOpts(ws, core.DistWorkOptions{Parallel: 1, Cache: tc})
		if err != nil {
			return fmt.Errorf("dist worker: %s: %w", id, err)
		}
		var unit *core.WorkUnit
		for i := range units {
			if units[i].Spec.Manifest() == info.Manifest {
				unit = &units[i]
			}
		}
		if unit == nil {
			return fmt.Errorf("dist worker: %s: no work unit matches the coordinator's manifest", id)
		}
		w := dist.NewWorker(tt, unit.Spec, unit.Run, dist.WorkerOptions{ID: "perfbench-worker"})
		if err := w.Run(ctx); err != nil {
			return fmt.Errorf("dist worker: %s: %w", id, err)
		}
		if ttr != nil {
			st.add(tt, tc)
		}
	}
}

// distTotals sums the traced distributed jobs' RPC and cache figures.
type distTotals struct {
	mu     sync.Mutex
	jobs   int64
	rpc    map[string]rpcStats
	leases int64
	cells  int64
	cache  cacheStats
}

func (d *distTotals) add(tt *timingTransport, tc *timingCache) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if d.rpc == nil {
		d.rpc = map[string]rpcStats{}
	}
	d.jobs++
	for k, v := range tt.stats {
		s := d.rpc[k]
		s.Calls += v.Calls
		s.Busy += v.Busy
		s.Bytes += v.Bytes
		d.rpc[k] = s
	}
	d.leases += tt.leases
	d.cells += tt.cells
	d.cache.gets += tc.st.gets
	d.cache.hits += tc.st.hits
	d.cache.puts += tc.st.puts
	d.cache.getBusy += tc.st.getBusy
	d.cache.putBusy += tc.st.putBusy
	d.cache.putBytes += tc.st.putBytes
}

// runJob submits one job, follows its SSE stream to the terminal event
// and fetches the report. Completion comes from the stream, never from
// polling, so no poll period sits inside the latency.
func runJob(ctx context.Context, c *serve.Client, ms *mixServer, j *mixJob) error {
	j.t0 = time.Now()
	sub, err := c.Submit(ctx, j.spec)
	j.submitted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	j.id = sub.Job.ID
	if sub.Existing {
		return fmt.Errorf("job %s: spec %+v was not distinct", j.id, j.spec)
	}
	if j.spec.Distributed {
		ms.known <- j.id
	}
	sawDone := false
	err = c.Events(ctx, j.id, func(name string, data json.RawMessage) error {
		j.events++
		switch name {
		case "progress":
			var p sched.Progress
			if err := json.Unmarshal(data, &p); err != nil {
				return err
			}
			if p.Final {
				j.busy = 0
				for _, b := range p.DeviceBusy {
					j.busy += b
				}
			}
		case "done":
			j.final = time.Now()
			sawDone = true
			return json.Unmarshal(data, &j.job)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("job %s events: %w", j.id, err)
	}
	if !sawDone {
		return fmt.Errorf("job %s: stream ended without a terminal event", j.id)
	}
	if j.job.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", j.id, j.job.State, j.job.Error)
	}
	j.report, err = c.Report(ctx, j.id)
	j.reported = time.Now()
	if err != nil {
		return fmt.Errorf("job %s report: %w", j.id, err)
	}
	return nil
}

// runTenants drives every tenant's sequence as a closed loop: a
// tenant submits its next job only after the previous one's report.
func runTenants(ctx context.Context, ms *mixServer, seqs [][]*mixJob) {
	var wg sync.WaitGroup
	for t := range seqs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := &serve.Client{BaseURL: ms.base, APIKey: fmt.Sprintf("tenant-%d", t)}
			for _, j := range seqs[t] {
				if j.err = runJob(ctx, c, ms, j); j.err != nil {
					return
				}
			}
		}(t)
	}
	wg.Wait()
}

func runServeMix(ctx context.Context, o options) (Result, error) {
	base := filepath.Join(o.workDir, fmt.Sprintf("serve-%d", os.Getpid()))
	var setup, generate []float64
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	tracing := &atomic.Bool{}
	var ms *mixServer
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // as in runCLI: each set-up starts on a collected heap
		t0 := time.Now()
		s, err := startServer(filepath.Join(base, fmt.Sprint(i)), tr, tracing)
		if err != nil {
			return Result{}, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		t1 := time.Now()
		if _, err := mutation.Generate(); err != nil {
			return Result{}, err
		}
		generate = append(generate, time.Since(t1).Seconds()*1e3)
		if ms != nil {
			if err := ms.close(); err != nil {
				return Result{}, fmt.Errorf("setup: stop server: %w", err)
			}
		}
		ms = s
	}
	defer os.RemoveAll(base)
	fmt.Fprintln(os.Stderr, "perfbench: serve-mix: state, checkpoints and cache on an in-memory diskio.FS (tmpfs stand-in: no disk I/O, every fsync call still made)")

	// A failing worker stops the tenants too: a distributed job no one
	// serves would otherwise never end.
	tctx, stopTenants := context.WithCancel(ctx)
	defer stopTenants()
	wctx, stopWorker := context.WithCancel(ctx)
	workerErr := make(chan error, 1)
	dt := &distTotals{}
	go func() {
		err := ms.distWorker(wctx, tr, tracing, dt)
		if err != nil {
			stopTenants()
		}
		workerErr <- err
	}()

	perTenant := int(o.seconds.Seconds()*serveJobsPerSecond/tenants + 0.5)
	if perTenant*tenants < minLatencySamples {
		perTenant = (minLatencySamples + tenants - 1) / tenants
	}
	// A traced run splits each tenant's jobs into an untraced warm-up
	// third, then alternates one kind cycle traced with one untraced, so
	// host speed drift hits both sides of the tracing-overhead figure
	// alike. The traced cycles give the per-layer metrics.
	var warm, traced, plain [][]*mixJob
	var chunks [][][]*mixJob // chunks[i][tenant]: one kind cycle
	c := len(kindCycle)
	for t := 0; t < tenants; t++ {
		all := jobSpecs(o.seed, t, perTenant)
		if !o.trace {
			plain = append(plain, all)
			continue
		}
		start := perTenant - 2*max(perTenant/3/c, 1)*c
		warm = append(warm, all[:start])
		traced, plain = append(traced, nil), append(plain, nil)
		for i, k := 0, start; k+c <= perTenant; i, k = i+1, k+c {
			if t == 0 {
				chunks = append(chunks, make([][]*mixJob, tenants))
			}
			chunks[i][t] = all[k : k+c]
			if i%2 == 0 {
				traced[t] = append(traced[t], all[k:k+c]...)
			} else {
				plain[t] = append(plain[t], all[k:k+c]...)
			}
		}
	}

	var roots []int
	var hm [2]int64 // classifier hits and misses during traced cycles
	var tracedWall, plainWall time.Duration
	runTenants(tctx, ms, warm)
	for i, chunk := range chunks {
		on := i%2 == 0
		tracing.Store(on)
		t0 := time.Now()
		var ids []int
		for t := range chunk {
			if on {
				id := tr.begin("tenant", fmt.Sprintf("tenant-%d", t), noParent)
				for _, j := range chunk[t] {
					j.root = id
				}
				ids = append(ids, id)
			}
		}
		h0, m0 := harness.SharedClassifier().Stats()
		runTenants(tctx, ms, chunk)
		for _, id := range ids {
			tr.finish(id)
		}
		if on {
			h1, m1 := harness.SharedClassifier().Stats()
			hm[0] += h1 - h0
			hm[1] += m1 - m0
		}
		roots = append(roots, ids...)
		if on {
			tracedWall += time.Since(t0)
		} else {
			plainWall += time.Since(t0)
		}
	}
	tracing.Store(false)
	mid := snapshot()
	if !o.trace {
		runTenants(tctx, ms, plain)
	}
	to := snapshot()
	rss := peakRSSMB()
	stopWorker()
	if err := <-workerErr; err != nil {
		return Result{}, err
	}
	if err := ms.close(); err != nil {
		return Result{}, fmt.Errorf("stop server: %w", err)
	}

	all := append(append(flatten(warm), flatten(traced)...), flatten(plain)...)
	r := region{attempted: len(all)}
	var errs []string
	timed := flatten(plain)
	r.from, r.to = mid, to
	if o.trace {
		timed = flatten(traced)
	}
	for _, j := range all {
		if j.err != nil || j.report == nil {
			r.bad++
			if j.err != nil {
				errs = append(errs, j.err.Error())
			} else {
				errs = append(errs, fmt.Sprintf("tenant %d job %d never ran", j.tenant, j.k))
			}
		}
	}
	for _, j := range timed {
		if j.err != nil || j.report == nil {
			r.latencies = append(r.latencies, 1e9) // misses every latency limit
			continue
		}
		r.latencies = append(r.latencies, j.final.Sub(j.t0).Seconds())
		r.jobs++
		r.cells += j.job.Cells
	}
	r.instances = instancesOf(timed)
	by := map[string][]float64{}
	for _, j := range timed {
		if j.report != nil {
			by[j.label] = append(by[j.label], j.final.Sub(j.t0).Seconds())
		}
	}
	for _, l := range []string{"conformance", "dist", "tune", "evaluate", "dist-cached"} {
		fmt.Fprintf(os.Stderr, "perfbench: %-11s jobs: %3d, median latency %.4f s\n", l, len(by[l]), median(by[l]))
	}

	// Correctness: every report must equal the same spec run locally,
	// and the default seed's reports must match the recorded digest.
	if len(errs) == 0 {
		if err := checkReports(ctx, all); err != nil {
			errs = append(errs, err.Error())
		}
		if err := checkRecorded(o, all); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if r.bad == 0 && len(errs) > 0 {
		r.bad = r.attempted
	}

	mset := newMetricSet()
	if !o.trace {
		endToEndMetrics(mset, r, setup, rss)
		mset.require(endToEnd)
	} else {
		if len(errs) > 0 {
			return Result{}, fmt.Errorf("serve-mix: %d check(s) failed, no per-layer split", len(errs))
		}
		if err := serveLayers(mset, o, tr, roots, ms, flatten(plain), timed, dt, hm, generate, plainWall, tracedWall); err != nil {
			return Result{}, err
		}
		mset.require(perLayer)
	}
	if err := mset.err(); err != nil {
		return Result{}, err
	}
	return Result{Correct: len(errs) == 0, Attempted: r.attempted, Failed: r.bad, Metrics: mset.m}, nil
}

func flatten(seqs [][]*mixJob) []*mixJob {
	var out []*mixJob
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// instancesOf sums the instances reported by the jobs' artifacts.
func instancesOf(jobs []*mixJob) int {
	n := 0
	for _, j := range jobs {
		n += artifactInstances(j.spec.Kind, j.report)
	}
	return n
}

func artifactInstances(kind string, report []byte) int {
	n := 0
	switch kind {
	case "tune":
		var ds tuning.Dataset
		if json.Unmarshal(report, &ds) == nil {
			for _, r := range ds.Records {
				n += r.Instances
			}
		}
	default:
		var art core.CampaignArtifact
		if json.Unmarshal(report, &art) == nil {
			for _, rep := range art.Conformance {
				for _, f := range rep.Findings {
					n += f.Instances
				}
			}
			for _, e := range art.Evaluate {
				for _, res := range e.Score.PerMutant {
					n += res.Instances
				}
			}
		}
	}
	return n
}

// canonical strips host time from an artifact: evaluate reports embed
// each mutant's measured WallSeconds, the one field two runs of one
// spec may not share. Everything else is compared byte for byte.
func canonical(kind string, report []byte) ([]byte, error) {
	if kind != "evaluate" {
		return report, nil
	}
	var art core.CampaignArtifact
	if err := json.Unmarshal(report, &art); err != nil {
		return nil, err
	}
	for _, e := range art.Evaluate {
		for _, res := range e.Score.PerMutant {
			res.WallSeconds = 0
		}
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkRecorded compares each job's canonical report digest with the
// one recorded for the default seed; with --print-digests it prints
// them instead.
func checkRecorded(o options, jobs []*mixJob) error {
	rec, err := recordedDigests(o.seed)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for _, j := range jobs {
		c, err := canonical(j.spec.Kind, j.report)
		if err != nil {
			return err
		}
		got[fmt.Sprintf("%d/%d", j.tenant, j.k)] = digestOf(c)
	}
	if o.digests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%q: %s\n", o.workload, b)
		return nil
	}
	if rec == nil {
		return nil
	}
	for key, d := range got {
		if want, ok := rec.Serve[key]; ok && want != d {
			return fmt.Errorf("job %s report digest %s does not match the recorded %s", key, d, want)
		}
	}
	return nil
}

// checkReports re-runs every job's spec locally through core and
// tuning, bypassing the service, and requires byte-identical reports.
func checkReports(ctx context.Context, jobs []*mixJob) error {
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		local, err := localReport(ctx, study, j.spec)
		if err != nil {
			return fmt.Errorf("local run of %s job %s: %w", j.label, j.id, err)
		}
		want, err := canonical(j.spec.Kind, local)
		if err != nil {
			return err
		}
		got, err := canonical(j.spec.Kind, j.report)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s job %s: report differs from the same spec run locally", j.label, j.id)
		}
	}
	return nil
}

func localReport(ctx context.Context, study *core.Study, js serve.JobSpec) ([]byte, error) {
	var platforms []core.Platform
	for _, d := range js.Devices {
		p := core.Platform{Device: d}
		if js.FenceBug {
			p.Driver = wgsl.DriverFenceDropping
		}
		platforms = append(platforms, p)
	}
	opts := core.CampaignOptions{Workers: 2}
	var art core.CampaignArtifact
	switch js.Kind {
	case "conformance":
		env, err := core.EnvByName(js.Envs[0], 16, 32)
		if err != nil {
			return nil, err
		}
		reports, err := study.CheckFleetConformanceCtx(ctx, platforms, env, js.Iters, js.Seed, opts)
		if err != nil {
			return nil, err
		}
		art = core.CampaignArtifact{Kind: "conformance", Conformance: reports}
	case "evaluate":
		var envs []harness.Params
		for _, n := range js.Envs {
			env, err := core.EnvByName(n, 16, 32)
			if err != nil {
				return nil, err
			}
			envs = append(envs, env)
		}
		art = core.CampaignArtifact{Kind: "evaluate"}
		for _, p := range platforms {
			score, err := study.EvaluateEnvironmentsCtx(ctx, p, envs, js.Iters, js.Seed, opts)
			if err != nil {
				return nil, err
			}
			art.Evaluate = append(art.Evaluate, core.EvaluateEntry{Device: p.Device, Score: score})
		}
	case "tune":
		cfg := tuning.SmallConfig()
		cfg.Environments, cfg.SITEIterations, cfg.PTEIterations = js.TuneEnvs, js.SiteIters, js.PTEIters
		cfg.Seed, cfg.Devices = js.Seed, js.Devices
		ds, err := tuning.RunCampaignCtx(ctx, cfg, study.Suite.Mutants, tuning.RunOptions{Workers: 2})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ds.Save(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, errors.New("unknown kind " + js.Kind)
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveLayers derives the per-layer metrics of a traced serve-mix run
// from its traced half.
func serveLayers(mset *metricSet, o options, tr *tracer, roots []int, ms *mixServer,
	plain, traced []*mixJob, dt *distTotals, hm [2]int64, generate []float64, plainWall, tracedWall time.Duration) error {
	var cells, localCells, runnerCells float64
	var submit, report, queue, overhead, notify, elapsed, busy float64
	var events int
	for _, j := range traced {
		jid := j.id
		js := tr.add("job", jid, j.root, j.t0, j.reported)
		tr.add("serve.submit", jid, js, j.t0, j.submitted)
		tr.add("serve.queue", jid, js, j.job.SubmittedAt, *j.job.StartedAt)
		tr.add("serve.run", jid, js, *j.job.StartedAt, *j.job.FinishedAt)
		tr.add("serve.notify", jid, js, *j.job.FinishedAt, j.final)
		tr.add("serve.report", jid, js, j.final, j.reported)

		c := float64(j.job.Cells)
		cells += c
		submit += j.submitted.Sub(j.t0).Seconds()
		report += j.reported.Sub(j.final).Seconds()
		queue += j.job.StartedAt.Sub(j.job.SubmittedAt).Seconds()
		overhead += j.job.FinishedAt.Sub(*j.job.StartedAt).Seconds() - j.job.Summary.ElapsedSeconds
		notify += j.final.Sub(*j.job.FinishedAt).Seconds()
		events += j.events
		switch j.label {
		case "conformance", "evaluate", "tune":
			localCells += c
			elapsed += j.job.Summary.ElapsedSeconds
			busy += j.busy
			if j.label == "tune" {
				runnerCells += c / tuneMutants
			} else {
				runnerCells += c
			}
		case "dist":
			runnerCells += c
		}
	}
	n := float64(len(traced))
	mset.set("serve.submit_ms", submit*1e3/n)
	mset.set("serve.report_ms", report*1e3/n)
	mset.set("serve.queue_wait_ms", queue*1e3/n)
	mset.set("serve.run_overhead_ms", overhead*1e3/n)
	mset.set("serve.notify_ms", notify*1e3/n)
	st := ms.fs.class("store")
	mset.set("serve.store_write_us", us(st.Busy)/n)
	mset.set("serve.store_syncs_per_job", float64(st.Syncs)/n)
	mset.set("serve.sse_events_per_job", float64(events)/n)

	ck := ms.fs.class("checkpoint")
	mset.set("sched.self_ms_per_cell", (elapsed-busy)*1e3/localCells)
	mset.set("sched.busy_ratio", busy/elapsed)
	mset.set("sched.ckpt_write_us_per_cell", us(ck.Busy)/cells)
	mset.set("sched.ckpt_syncs_per_cell", float64(ck.Syncs)/cells)
	mset.set("sched.ckpt_bytes_per_cell", float64(ck.Bytes)/cells)

	dt.mu.Lock()
	rpcMS := func(kind string) float64 {
		s := dt.rpc[kind]
		if s.Calls == 0 {
			return 0
		}
		return s.Busy.Seconds() * 1e3 / float64(s.Calls)
	}
	mset.set("dist.acquire_ms", rpcMS("acquire"))
	mset.set("dist.renew_ms", rpcMS("renew"))
	mset.set("dist.deliver_ms", rpcMS("deliver"))
	mset.set("dist.leases_per_job", float64(dt.leases)/float64(dt.jobs))
	mset.set("dist.deliver_bytes_per_cell", float64(dt.rpc["deliver"].Bytes)/float64(dt.cells))
	c := dt.cache
	mset.set("resultcache.get_us", us(c.getBusy)/float64(c.gets))
	mset.set("resultcache.put_us", us(c.putBusy)/float64(c.puts))
	mset.set("resultcache.hit_ratio", float64(c.hits)/float64(c.gets))
	mset.set("resultcache.bytes_per_entry", float64(c.putBytes)/float64(c.puts))
	dt.mu.Unlock()

	hits, misses := float64(hm[0]), float64(hm[1])
	mset.set("harness.classify_hit_ratio", hits/(hits+misses))
	rep, err := replayAll(serveReplay(o.seed, traced))
	if err != nil {
		return err
	}
	rep.set(mset, runnerCells/cells)
	mset.set("mutation.generate_ms", median(generate))

	var plainCells float64
	for _, j := range plain {
		plainCells += float64(j.job.Cells)
	}
	perPlain := plainWall.Seconds() / plainCells
	perTraced := tracedWall.Seconds() / cells
	mset.set("trace.overhead_pct", 100*(perTraced-perPlain)/perPlain)

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
	mset.set("unattributed_ms_per_cell", unattributed.Seconds()*1e3/cells)
	printSelf(spans, self)
	return writeSpans(filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), spans)
}

// serveReplay samples cells of the traced local conformance jobs.
func serveReplay(seed uint64, jobs []*mixJob) []replayCell {
	study, err := core.NewStudy()
	if err != nil {
		return nil
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return nil
	}
	var conf []*mixJob
	for _, j := range jobs {
		if j.label == "conformance" {
			conf = append(conf, j)
		}
	}
	rng := xrand.NewFromPath(seed, "perfbench", "serve-mix", "replay")
	var out []replayCell
	for i := 0; i < serveReplaySamples && len(conf) > 0; i++ {
		j := conf[rng.Intn(len(conf))]
		pl := core.Platform{Device: j.spec.Devices[0], Driver: wgsl.DriverFenceDropping}
		spec, err := study.FleetConformanceSpec([]core.Platform{pl}, j.spec.Seed)
		if err != nil {
			return nil
		}
		var art core.CampaignArtifact
		if json.Unmarshal(j.report, &art) != nil || len(art.Conformance) != 1 {
			return nil
		}
		ti := rng.Intn(len(study.Suite.Conformance))
		f := art.Conformance[0].Findings[ti]
		out = append(out, replayCell{
			key: spec.Cells[ti].Key, spec: &spec, test: study.Suite.Conformance[ti], env: env,
			device: pl.Device, driver: pl.Driver, lower: true, iters: j.spec.Iters,
			want: cellRecord{instances: f.Instances, target: -1, violations: f.Violations},
		})
	}
	return out
}
