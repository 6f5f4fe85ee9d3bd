package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskio"
	"repro/internal/dist"
	"repro/internal/sched"
)

// ioStats accumulates one class of storage traffic.
type ioStats struct {
	Syncs, Bytes int64
	Busy         time.Duration
}

// timingFS wraps a diskio.FS, timing every call and recording it as a
// span. Paths are classified by the caller's classify function, which
// also names the job a path belongs to (the serve store keys files by
// job ID), so spans land in the right job.
type timingFS struct {
	inner    diskio.FS
	tr       *tracer
	classify func(path string) (class, job string)

	// enabled, when set, gates recording: the serve workload builds its
	// server once and traces only the second half of its jobs.
	enabled *atomic.Bool

	mu    sync.Mutex
	stats map[string]*ioStats
}

func newTimingFS(inner diskio.FS, tr *tracer, classify func(string) (string, string)) *timingFS {
	return &timingFS{inner: inner, tr: tr, classify: classify, stats: map[string]*ioStats{}}
}

func (t *timingFS) on() bool { return t.enabled == nil || t.enabled.Load() }

func (t *timingFS) record(path, op string, start time.Time, bytes int64) {
	if !t.on() {
		return
	}
	end := time.Now()
	class, job := t.classify(path)
	t.mu.Lock()
	st := t.stats[class]
	if st == nil {
		st = &ioStats{}
		t.stats[class] = st
	}
	st.Bytes += bytes
	st.Busy += end.Sub(start)
	if op == "sync" || op == "syncdir" {
		st.Syncs++
	}
	t.mu.Unlock()
	t.tr.add("diskio."+class+"."+op, job, noParent, start, end)
}

// class returns a copy of one class's totals.
func (t *timingFS) class(name string) ioStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[name]; st != nil {
		return *st
	}
	return ioStats{}
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	start := time.Now()
	f, err := t.inner.OpenFile(name, flag, perm)
	t.record(name, "open", start, 0)
	if err != nil || !t.on() {
		return f, err
	}
	return &timingFile{File: f, fs: t, name: name}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.record(newpath, "rename", start, 0)
	return err
}

func (t *timingFS) Remove(name string) error {
	start := time.Now()
	err := t.inner.Remove(name)
	t.record(name, "remove", start, 0)
	return err
}

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.inner.SyncDir(dir)
	t.record(dir+string(filepath.Separator), "syncdir", start, 0)
	return err
}

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return t.inner.MkdirAll(path, perm)
}

func (t *timingFS) ReadDir(name string) ([]os.DirEntry, error) { return t.inner.ReadDir(name) }

func (t *timingFS) Stat(name string) (os.FileInfo, error) { return t.inner.Stat(name) }

func (t *timingFS) Chtimes(name string, atime, mtime time.Time) error {
	return t.inner.Chtimes(name, atime, mtime)
}

type timingFile struct {
	diskio.File
	fs   *timingFS
	name string
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record(f.name, "write", start, int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record(f.name, "sync", start, 0)
	return err
}

// cacheStats accumulates result-cache traffic.
type cacheStats struct {
	gets, hits, puts int64
	getBusy, putBusy time.Duration
	putBytes         int64
}

// timingCache wraps a sched.ResultCache, timing Get and Put.
type timingCache struct {
	inner sched.ResultCache
	tr    *tracer
	job   string

	mu sync.Mutex
	st cacheStats
}

func (c *timingCache) Get(key string) ([]byte, bool, bool) {
	start := time.Now()
	payload, hit, corrupt := c.inner.Get(key)
	end := time.Now()
	c.mu.Lock()
	c.st.gets++
	if hit {
		c.st.hits++
	}
	c.st.getBusy += end.Sub(start)
	c.mu.Unlock()
	c.tr.add("resultcache.get", c.job, noParent, start, end)
	return payload, hit, corrupt
}

func (c *timingCache) Put(key string, payload []byte) {
	start := time.Now()
	c.inner.Put(key, payload)
	end := time.Now()
	c.mu.Lock()
	c.st.puts++
	c.st.putBytes += int64(len(payload))
	c.st.putBusy += end.Sub(start)
	c.mu.Unlock()
	c.tr.add("resultcache.put", c.job, noParent, start, end)
}

func (c *timingCache) Degraded() error { return c.inner.Degraded() }

// rpcStats accumulates one RPC kind.
type rpcStats struct {
	Calls int64
	Busy  time.Duration
	Bytes int64
}

// timingTransport wraps a dist.Transport, timing each RPC. Info waits
// out a not-yet-registered campaign by retrying at once (the caller
// only asks after the job started, so registration is microseconds
// away), which keeps a poll period out of the measured latency.
type timingTransport struct {
	inner dist.Transport
	tr    *tracer
	job   string

	mu     sync.Mutex
	stats  map[string]*rpcStats
	leases int64
	cells  int64
}

func newTimingTransport(inner dist.Transport, tr *tracer, job string) *timingTransport {
	return &timingTransport{inner: inner, tr: tr, job: job, stats: map[string]*rpcStats{}}
}

func (t *timingTransport) record(kind string, start time.Time, bytes int64) {
	end := time.Now()
	t.mu.Lock()
	st := t.stats[kind]
	if st == nil {
		st = &rpcStats{}
		t.stats[kind] = st
	}
	st.Calls++
	st.Busy += end.Sub(start)
	st.Bytes += bytes
	t.mu.Unlock()
	t.tr.add("dist."+kind, t.job, noParent, start, end)
}

func (t *timingTransport) Info(ctx context.Context) (*dist.WorkInfo, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		info, err := t.inner.Info(ctx)
		t.record("info", start, 0)
		if err == nil || !notRegistered(err) || time.Now().After(deadline) || ctx.Err() != nil {
			return info, err
		}
	}
}

// notRegistered reports the hub's answer for an unknown campaign.
func notRegistered(err error) bool {
	var rpc *dist.RPCError
	return errors.As(err, &rpc) && rpc.Status == http.StatusNotFound
}

// Acquire reports a campaign the hub no longer knows as done: the
// coordinator unregisters the moment its last cell arrives, which races
// the worker's next Acquire. The worker would otherwise retry with
// backoff sleeps while the next distributed job waits for it.
func (t *timingTransport) Acquire(ctx context.Context, req dist.AcquireRequest) (*dist.AcquireResponse, error) {
	start := time.Now()
	resp, err := t.inner.Acquire(ctx, req)
	t.record("acquire", start, 0)
	if err != nil && notRegistered(err) {
		return &dist.AcquireResponse{State: dist.StateDone}, nil
	}
	if err == nil && resp.Lease != nil {
		t.mu.Lock()
		t.leases++
		t.mu.Unlock()
	}
	return resp, err
}

func (t *timingTransport) Renew(ctx context.Context, req dist.RenewRequest) (*dist.RenewResponse, error) {
	start := time.Now()
	resp, err := t.inner.Renew(ctx, req)
	t.record("renew", start, 0)
	return resp, err
}

func (t *timingTransport) Deliver(ctx context.Context, req dist.DeliverRequest) (*dist.DeliverResponse, error) {
	var bytes int64
	for _, seg := range req.Segments {
		bytes += int64(len(seg.Value))
	}
	start := time.Now()
	resp, err := t.inner.Deliver(ctx, req)
	t.record("deliver", start, bytes)
	t.mu.Lock()
	t.cells += int64(len(req.Segments))
	t.mu.Unlock()
	return resp, err
}
