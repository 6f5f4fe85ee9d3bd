package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/wgsl"
)

// escalatingFaults corrupts and fails launches and loses the device
// after its second injected fault. A cell on a fresh device is lost
// only when both faults land in one attempt; a pooled runner that kept
// its escalation count across cells would lose its device far sooner,
// so any leak shows up as extra failed cells.
var escalatingFaults = gpu.FaultModel{Seed: 7, LaunchFailProb: 0.05, CorruptProb: 0.15, LossAfter: 2}

// poolFleets are the platform sets the pooled-vs-fresh tests cover:
// injected device defects and the fence-dropping toolchain, then the
// same under the escalating fault model.
func poolFleets() map[string][]Platform {
	plain := []Platform{
		{Device: "AMD", Driver: wgsl.DriverFenceDropping},
		{Device: "Intel", Bugs: gpu.Bugs{CoherenceRR: true, CoherenceRRProb: 0.4, CoherenceRRPressure: 2}},
		{Device: "Kepler", Bugs: gpu.Bugs{StaleCache: true}},
	}
	faulty := make([]Platform, len(plain))
	for i, p := range plain {
		p.Faults = escalatingFaults
		faulty[i] = p
	}
	return map[string][]Platform{"bugs": plain, "bugs+faults": faulty}
}

// conformanceBytes runs a fleet conformance campaign and encodes its
// artifact.
func conformanceBytes(t *testing.T, st *Study, platforms []Platform, opts CampaignOptions) []byte {
	t.Helper()
	reports, err := st.CheckFleetConformance(platforms, testEnv(), 3, 31, opts)
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	return encodeArtifact(t, &CampaignArtifact{Kind: "conformance", Conformance: reports})
}

// evaluateBytes runs one evaluation campaign per platform and encodes
// the artifact, host wall time zeroed.
func evaluateBytes(t *testing.T, st *Study, platforms []Platform, opts CampaignOptions) []byte {
	t.Helper()
	art := &CampaignArtifact{Kind: "evaluate"}
	for _, p := range platforms {
		score, err := st.EvaluateEnvironments(p, []harness.Params{testEnv()}, 2, 37, opts)
		if err != nil {
			t.Fatalf("evaluate %s: %v", p.Device, err)
		}
		zeroWall(score)
		art.Evaluate = append(art.Evaluate, EvaluateEntry{Device: p.Device, Score: score})
	}
	return encodeArtifact(t, art)
}

// TestPooledRunnersMatchFresh: conformance and evaluate artifacts are
// byte-identical whether every cell builds a fresh device and runner
// or draws a warm one from the pool, at any worker count, with device
// defects, a defective toolchain and an escalating fault model.
func TestPooledRunnersMatchFresh(t *testing.T) {
	st := study(t)
	fresh := &Study{Suite: st.Suite}
	for name, platforms := range poolFleets() {
		opts := CampaignOptions{Retries: 1, Collect: true}
		wantConf := conformanceBytes(t, fresh, platforms, opts)
		wantEval := evaluateBytes(t, fresh, platforms, opts)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				pool := &harness.Pool[runnerKey]{}
				pooled := &Study{Suite: st.Suite, runners: pool}
				opts.Workers = workers
				if got := conformanceBytes(t, pooled, platforms, opts); !bytes.Equal(got, wantConf) {
					t.Errorf("conformance artifact differs from fresh runners:\npooled:\n%s\nfresh:\n%s", got, wantConf)
				}
				if got := evaluateBytes(t, pooled, platforms, opts); !bytes.Equal(got, wantEval) {
					t.Errorf("evaluate artifact differs from fresh runners:\npooled:\n%s\nfresh:\n%s", got, wantEval)
				}
				if n := pool.Len(); n == 0 || n > harness.MaxIdleRunners {
					t.Errorf("pool holds %d idle runners, want 1..%d", n, harness.MaxIdleRunners)
				}
			})
		}
	}
}

// TestPooledDistMatchesFresh: a 2-shard distributed campaign, whose
// workers draw runners from the process-wide pool, publishes the same
// artifact as a local campaign on fresh runners.
func TestPooledDistMatchesFresh(t *testing.T) {
	st := study(t)
	fresh := &Study{Suite: st.Suite}
	fm := escalatingFaults
	for _, kind := range []string{"conformance", "evaluate"} {
		t.Run(kind, func(t *testing.T) {
			ws := WorkSpec{
				Kind: kind, Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"},
				Iters: 2, Seed: 41, FenceBug: true, Faults: &fm, Retries: 1,
			}
			envs, err := ws.envParams()
			if err != nil {
				t.Fatal(err)
			}
			desc, err := ws.Descriptor()
			if err != nil {
				t.Fatal(err)
			}
			local := CampaignOptions{Workers: 2, Retries: ws.Retries, Collect: true}
			hub := dist.NewHub()
			distOpts := func(name string) CampaignOptions {
				return CampaignOptions{Retries: ws.Retries, Collect: true, Dist: &DistOptions{
					Hub: hub, Name: name, Descriptor: desc,
					LeaseTTL: 2 * time.Second, RangeCells: 4,
				}}
			}
			var want, got []byte
			switch kind {
			case "conformance":
				reports, err := fresh.CheckFleetConformance(ws.platforms(), envs[0], ws.Iters, ws.Seed, local)
				if err != nil {
					t.Fatalf("local: %v", err)
				}
				want = encodeArtifact(t, &CampaignArtifact{Kind: kind, Conformance: reports})
				err = runDistributed(t, hub, ws, 2, 2, func() error {
					reports, err = st.CheckFleetConformanceCtx(context.Background(), ws.platforms(), envs[0], ws.Iters, ws.Seed, distOpts(kind))
					return err
				})
				if err != nil {
					t.Fatalf("distributed: %v", err)
				}
				got = encodeArtifact(t, &CampaignArtifact{Kind: kind, Conformance: reports})
			case "evaluate":
				wantArt, gotArt := &CampaignArtifact{Kind: kind}, &CampaignArtifact{Kind: kind}
				for _, p := range ws.platforms() {
					score, err := fresh.EvaluateEnvironments(p, envs, ws.Iters, ws.Seed, local)
					if err != nil {
						t.Fatalf("local: %v", err)
					}
					zeroWall(score)
					wantArt.Evaluate = append(wantArt.Evaluate, EvaluateEntry{Device: p.Device, Score: score})
				}
				err = runDistributed(t, hub, ws, 2, 2, func() error {
					for _, p := range ws.platforms() {
						score, err := st.EvaluateEnvironmentsCtx(context.Background(), p, envs, ws.Iters, ws.Seed, distOpts("evaluate."+p.Device))
						if err != nil {
							return err
						}
						zeroWall(score)
						gotArt.Evaluate = append(gotArt.Evaluate, EvaluateEntry{Device: p.Device, Score: score})
					}
					return nil
				})
				if err != nil {
					t.Fatalf("distributed: %v", err)
				}
				want, got = encodeArtifact(t, wantArt), encodeArtifact(t, gotArt)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("artifacts differ:\nfresh local:\n%s\npooled distributed:\n%s", want, got)
			}
		})
	}
}
