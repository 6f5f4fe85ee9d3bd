package harness

import "sync"

// MaxIdleRunners bounds a Pool. An idle runner pins the high-water
// scratch of its environment (threads × programs × registers) and its
// device's executor, so an unbounded pool at paper scale would hold
// hundreds of megabytes; 16 covers a device fleet's working set.
const MaxIdleRunners = 16

// Pool holds up to MaxIdleRunners idle, warm Runners, keyed by
// whatever makes two runners interchangeable — typically the device,
// its injected defects and toolchain, and the environment. A runner
// leaves the pool exclusively through Get and goes back through Put
// once its cell is done, so its single-goroutine scratch is never
// shared. When the pool is full, Put evicts the runner idle longest.
//
// Reuse never changes results: a warm runner's scratch is rebuilt
// every iteration without consuming randomness, and Get restarts the
// device's fault-escalation count, so a pooled runner computes exactly
// what a freshly built one would.
//
// The zero Pool is empty and ready; it is safe for concurrent use. A
// nil *Pool holds nothing: Get always misses and Put drops the runner.
type Pool[K comparable] struct {
	mu sync.Mutex
	// seq stamps each Put, ordering slots by idle age.
	seq  uint64
	idle [MaxIdleRunners]idleRunner[K]
}

// idleRunner is one pool slot; a nil r marks it free.
type idleRunner[K comparable] struct {
	key K
	r   *Runner
	seq uint64
}

// Get removes and returns the most recently returned idle runner for
// key, or nil when there is none. The runner's device gets its fault
// model re-installed, which restarts the escalation count the way a
// fresh device starts.
func (p *Pool[K]) Get(key K) *Runner {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	best := -1
	for i := range p.idle {
		s := &p.idle[i]
		if s.r != nil && s.key == key && (best < 0 || s.seq > p.idle[best].seq) {
			best = i
		}
	}
	var r *Runner
	if best >= 0 {
		r = p.idle[best].r
		p.idle[best] = idleRunner[K]{}
	}
	p.mu.Unlock()
	if r != nil {
		// The model was validated when first installed, so
		// re-installing it cannot fail.
		_ = r.Device.SetFaults(r.Device.Faults())
	}
	return r
}

// Put returns r, which the caller must no longer use, to the pool
// under key, evicting the runner idle longest when the pool is full.
func (p *Pool[K]) Put(key K, r *Runner) {
	if p == nil || r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	slot := 0
	for i := range p.idle {
		if p.idle[i].r == nil {
			slot = i
			break
		}
		if p.idle[i].seq < p.idle[slot].seq {
			slot = i
		}
	}
	p.seq++
	p.idle[slot] = idleRunner[K]{key: key, r: r, seq: p.seq}
}

// Len reports how many idle runners the pool holds.
func (p *Pool[K]) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.idle {
		if p.idle[i].r != nil {
			n++
		}
	}
	return n
}
