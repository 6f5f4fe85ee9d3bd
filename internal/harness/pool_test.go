package harness

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

func newPoolRunner(t testing.TB) *Runner {
	t.Helper()
	r, err := NewRunner(device(t, "AMD", gpu.Bugs{}), smallPTE())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPoolGetPut: a runner comes back only under its own key, leaves
// the pool exclusively, and the most recently returned one is handed
// out first.
func TestPoolGetPut(t *testing.T) {
	var p Pool[string]
	if p.Get("a") != nil {
		t.Fatal("empty pool returned a runner")
	}
	a1, a2, b := newPoolRunner(t), newPoolRunner(t), newPoolRunner(t)
	p.Put("a", a1)
	p.Put("b", b)
	p.Put("a", a2)
	if n := p.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if got := p.Get("a"); got != a2 {
		t.Fatal("Get did not return the most recently returned runner")
	}
	if got := p.Get("a"); got != a1 {
		t.Fatal("Get did not return the remaining runner for the key")
	}
	if p.Get("a") != nil {
		t.Fatal("Get handed out a runner twice")
	}
	if got := p.Get("b"); got != b {
		t.Fatal("runner lost under its own key")
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("Len = %d after draining, want 0", n)
	}

	var nilPool *Pool[string]
	nilPool.Put("a", a1)
	if nilPool.Get("a") != nil || nilPool.Len() != 0 {
		t.Fatal("nil pool retained a runner")
	}
}

// TestPoolBound: the pool never holds more than MaxIdleRunners idle
// runners, and a Put into a full pool evicts the runner idle longest.
func TestPoolBound(t *testing.T) {
	var p Pool[int]
	runners := make([]*Runner, 2*MaxIdleRunners)
	for i := range runners {
		runners[i] = newPoolRunner(t)
		p.Put(i, runners[i])
		if n := p.Len(); n > MaxIdleRunners {
			t.Fatalf("pool holds %d idle runners, bound %d", n, MaxIdleRunners)
		}
	}
	if n := p.Len(); n != MaxIdleRunners {
		t.Fatalf("Len = %d, want %d", n, MaxIdleRunners)
	}
	for i := range runners {
		got := p.Get(i)
		if evicted := i < MaxIdleRunners; evicted != (got == nil) {
			t.Fatalf("key %d: evicted = %v, want %v", i, got == nil, evicted)
		}
		if got != nil && got != runners[i] {
			t.Fatalf("key %d returned another key's runner", i)
		}
	}
}

// TestPoolGetPutZeroAllocs: once warm, taking a runner out and putting
// it back allocates nothing.
func TestPoolGetPutZeroAllocs(t *testing.T) {
	type key struct {
		device string
		env    Params
	}
	var p Pool[key]
	k := key{device: "AMD", env: smallPTE()}
	p.Put(k, newPoolRunner(t))
	allocs := testing.AllocsPerRun(100, func() {
		r := p.Get(k)
		if r == nil {
			t.Fatal("warm runner missing")
		}
		p.Put(k, r)
	})
	if allocs != 0 {
		t.Errorf("Get+Put: %v allocs/op, want 0", allocs)
	}
}

// TestPoolRestartsFaultEscalation: a runner whose device escalated to
// loss comes out of the pool with its escalation count restarted, so
// it behaves exactly like a freshly built runner.
func TestPoolRestartsFaultEscalation(t *testing.T) {
	test, _ := mutation.MustGenerate().ByName("MP")
	fm := gpu.FaultModel{Seed: 3, LaunchFailProb: 1, LossAfter: 1}
	r := newPoolRunner(t)
	if err := r.Device.SetFaults(fm); err != nil {
		t.Fatal(err)
	}
	lost := func(r *Runner) bool {
		_, err := r.Run(test, 1, xrand.New(1))
		return errors.Is(err, gpu.ErrDeviceLost)
	}
	if lost(r) {
		t.Fatal("first fault already lost the device")
	}
	if !lost(r) {
		t.Fatal("device did not escalate to loss")
	}
	var p Pool[string]
	p.Put("k", r)
	warm := p.Get("k")
	if warm.Device.Faults() != fm {
		t.Fatal("pool changed the device's fault model")
	}
	if lost(warm) {
		t.Fatal("pooled runner kept its escalation count")
	}
}

// TestPoolConcurrent exercises Get/Put from several goroutines (run
// under -race): every runner is held by one goroutine at a time.
func TestPoolConcurrent(t *testing.T) {
	var p Pool[int]
	var mu sync.Mutex
	held := map[*Runner]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g + i) % 3
				r := p.Get(key)
				if r == nil {
					r = &Runner{Device: gpu.MustDevice(gpu.Profiles()[0], gpu.Bugs{})}
				}
				mu.Lock()
				if held[r] {
					t.Error("runner handed to two goroutines at once")
				}
				held[r] = true
				mu.Unlock()
				runtime.Gosched() // let other goroutines reach the pool while r is held
				mu.Lock()
				delete(held, r)
				mu.Unlock()
				p.Put(key, r)
			}
		}(g)
	}
	wg.Wait()
	if n := p.Len(); n > MaxIdleRunners {
		t.Fatalf("pool holds %d idle runners, bound %d", n, MaxIdleRunners)
	}
}
