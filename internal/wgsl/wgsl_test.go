package wgsl

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

var fenced = gpu.Program{
	{Op: gpu.OpStore, Addr: 0, Imm: 1},
	{Op: gpu.OpFence},
	{Op: gpu.OpStore, Addr: 1, Imm: 1},
}

func countFences(p gpu.Program) int {
	n := 0
	for _, in := range p {
		if in.Op == gpu.OpFence {
			n++
		}
	}
	return n
}

func TestConformantVulkanPreservesFences(t *testing.T) {
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverConformant}
	out, passes := tc.Lower(fenced)
	if countFences(out) != 1 {
		t.Fatalf("conformant vulkan lowered %d fences, want 1:\n%v", countFences(out), out)
	}
	if len(passes) == 0 {
		t.Fatal("no passes reported")
	}
	// Annotation must not leak into the final encoding.
	for _, in := range out {
		if in.Op == gpu.OpFence && in.Imm != 0 {
			t.Fatalf("fence kept annotation %#x", in.Imm)
		}
	}
}

func TestDefectiveVulkanDropsFences(t *testing.T) {
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverFenceDropping}
	out, passes := tc.Lower(fenced)
	if countFences(out) != 0 {
		t.Fatalf("defective driver kept %d fences", countFences(out))
	}
	found := false
	for _, p := range passes {
		if strings.Contains(p, "defective") {
			found = true
		}
	}
	if !found {
		t.Fatalf("defective pass not reported: %v", passes)
	}
	// Non-fence instructions survive untouched, in order.
	if len(out) != 2 || out[0].Op != gpu.OpStore || out[1].Op != gpu.OpStore {
		t.Fatalf("lowering mangled program: %v", out)
	}
}

func TestMetalAndHLSLPreserveFences(t *testing.T) {
	for _, backend := range []gpu.Backend{gpu.Metal, gpu.HLSL} {
		tc := &Toolchain{Backend: backend, Driver: DriverFenceDropping}
		// The defect is Vulkan-specific; other backends keep fences even
		// with the "defective" flag because their pipelines differ.
		out, _ := tc.Lower(fenced)
		if countFences(out) != 1 {
			t.Fatalf("%v: %d fences, want 1", backend, countFences(out))
		}
	}
}

func TestLoweringDoesNotMutateInput(t *testing.T) {
	in := make(gpu.Program, len(fenced))
	copy(in, fenced)
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverFenceDropping}
	tc.Lower(in)
	for i := range in {
		if in[i] != fenced[i] {
			t.Fatal("Lower mutated its input")
		}
	}
}

func TestFoldRedundantFences(t *testing.T) {
	p := gpu.Program{
		{Op: gpu.OpFence}, {Op: gpu.OpFence},
		{Op: gpu.OpStore, Addr: 0, Imm: 1},
		{Op: gpu.OpFence}, {Op: gpu.OpFence}, {Op: gpu.OpFence},
		{Op: gpu.OpLoad, Addr: 0, Reg: 0},
	}
	for _, backend := range []gpu.Backend{gpu.Metal, gpu.Vulkan, gpu.HLSL} {
		out, _ := (&Toolchain{Backend: backend}).Lower(p)
		if countFences(out) != 2 {
			t.Fatalf("%v folded to %d fences, want 2", backend, countFences(out))
		}
	}
}

func TestNewToolchainFromProfile(t *testing.T) {
	amd, _ := gpu.ProfileByName("AMD")
	tc := NewToolchain(amd, DriverFenceDropping)
	if tc.Backend != gpu.Vulkan {
		t.Fatalf("AMD toolchain backend = %v", tc.Backend)
	}
	intel, _ := gpu.ProfileByName("Intel")
	if NewToolchain(intel, DriverConformant).Backend != gpu.Metal {
		t.Fatal("Intel toolchain should target Metal")
	}
}

func TestDriverVersionString(t *testing.T) {
	if DriverConformant.String() != "conformant" || DriverFenceDropping.String() != "fence-dropping" {
		t.Fatal("driver names wrong")
	}
}

// TestToolchainReproducesMPRelacqBug runs the full stack: the
// MP-relacq conformance test through the defective Vulkan toolchain on
// the conformant AMD device must show violations, while the conformant
// toolchain must not.
func TestToolchainReproducesMPRelacqBug(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP-relacq")
	prof, _ := gpu.ProfileByName("AMD")
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	env := harness.PTEBaseline(8, 16)
	env.MaxWorkgroups = env.TestingWorkgroups + 4
	env.MemStressPct = 100
	env.MemStressIters = 8
	env.PreStressPct = 80
	env.PreStressIters = 2
	env.MemStride = 2
	env.MemLocOffset = 1

	for _, c := range []struct {
		driver     DriverVersion
		wantViol   bool
		iterations int
	}{
		{DriverConformant, false, 6},
		{DriverFenceDropping, true, 12},
	} {
		r, err := harness.NewRunner(dev, env)
		if err != nil {
			t.Fatal(err)
		}
		r.Lower = NewToolchain(prof, c.driver).LowerFunc()
		res, err := r.Run(test, c.iterations, xrand.New(61))
		if err != nil {
			t.Fatal(err)
		}
		if c.wantViol && res.Violations == 0 {
			t.Errorf("driver %v: bug not observed in %d instances", c.driver, res.Instances)
		}
		if !c.wantViol && res.Violations > 0 {
			t.Errorf("driver %v: %d spurious violations", c.driver, res.Violations)
		}
	}
}

func TestEmitTestShader(t *testing.T) {
	suite := mutation.MustGenerate()
	for _, name := range []string{"CoRR", "MP-relacq", "CoWW", "SB-relacq-rmw"} {
		test, _ := suite.ByName(name)
		src := EmitTestShader(test, SourceOptions{Parallel: true, WorkgroupSize: 128})
		for _, want := range []string{
			"@compute @workgroup_size(128)",
			"fn permute(v : u32)",
			"test_locations",
			"atomic",
		} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: shader missing %q:\n%s", name, want, src)
			}
		}
		if test.HasFences() && !strings.Contains(src, "storageBarrier()") {
			t.Errorf("%s: fence not rendered", name)
		}
	}
	// Single-instance rendering guards the invocation id.
	test, _ := suite.ByName("CoRR")
	src := EmitTestShader(test, SourceOptions{})
	if !strings.Contains(src, "if (gid.x >= 1u) { return; }") {
		t.Errorf("single-instance shader missing guard:\n%s", src)
	}
	if !strings.Contains(src, "@workgroup_size(256)") {
		t.Error("default workgroup size not applied")
	}
}

func TestEmitShaderMentionsMutant(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("CoRR-mutant")
	src := EmitTestShader(test, SourceOptions{Parallel: true})
	if !strings.Contains(src, "mutant of CoRR") {
		t.Error("mutant provenance missing from shader header")
	}
}

// BenchmarkLowerVulkan measures the in-place hook the harness runs on
// every thread program of every launch: each op refills one buffer
// with 20 store+fence pairs and lowers it through the defective Vulkan
// driver, the conformance path. Lowering allocates nothing.
func BenchmarkLowerVulkan(b *testing.B) {
	lower := (&Toolchain{Backend: gpu.Vulkan, Driver: DriverFenceDropping}).LowerFunc()
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

// ---- reference pipeline ----
//
// The pass-by-pass lowering pipeline the fused Toolchain loop replaced,
// kept as the reference implementation the equivalence property test
// compares against. Every pass copies its input, so the reference
// never aliases the program it is given.

// Reference fences carry memory-semantics flags in Imm between passes.
const (
	semAcquireRelease = 0x8
	semStorageBuffer  = 0x40
)

// pass is one reference lowering stage over a kernel program.
type pass interface {
	name() string
	apply(gpu.Program) gpu.Program
}

// referencePasses is the backend's reference pipeline in application
// order.
func referencePasses(tc *Toolchain) []pass {
	switch tc.Backend {
	case gpu.Vulkan:
		return []pass{
			annotateBarrierSemantics{},
			spirvMemorySemantics{drop: tc.Driver == DriverFenceDropping},
			encodeFences{},
			foldRedundantFences{},
		}
	case gpu.Metal:
		return []pass{copyPass("msl-threadgroup-lowering"), foldRedundantFences{}}
	default: // HLSL
		return []pass{copyPass("hlsl-device-memory-barrier"), foldRedundantFences{}}
	}
}

// referenceLower runs the reference pipeline and reports the pass
// names applied.
func referenceLower(tc *Toolchain, p gpu.Program) (gpu.Program, []string) {
	var names []string
	out := p
	for _, ps := range referencePasses(tc) {
		out = ps.apply(out)
		names = append(names, ps.name())
	}
	return out, names
}

// annotateBarrierSemantics tags each fence with the release/acquire +
// storage-class semantics WGSL's inter-workgroup model requires.
type annotateBarrierSemantics struct{}

func (annotateBarrierSemantics) name() string { return "annotate-barrier-semantics" }

func (annotateBarrierSemantics) apply(p gpu.Program) gpu.Program {
	out := slices.Clone(p)
	for i := range out {
		if out[i].Op == gpu.OpFence {
			out[i].Imm = semAcquireRelease | semStorageBuffer
		}
	}
	return out
}

// spirvMemorySemantics models the SPIR-V consumer; the defective
// driver build zeroes the semantics operand.
type spirvMemorySemantics struct{ drop bool }

func (s spirvMemorySemantics) name() string {
	if s.drop {
		return "spirv-memory-semantics(defective)"
	}
	return "spirv-memory-semantics"
}

func (s spirvMemorySemantics) apply(p gpu.Program) gpu.Program {
	out := slices.Clone(p)
	if !s.drop {
		return out
	}
	for i := range out {
		if out[i].Op == gpu.OpFence {
			out[i].Imm = 0
		}
	}
	return out
}

// encodeFences removes fences without release/acquire semantics and
// clears the annotation of the rest.
type encodeFences struct{}

func (encodeFences) name() string { return "encode-fences" }

func (encodeFences) apply(p gpu.Program) gpu.Program {
	out := make(gpu.Program, 0, len(p))
	for _, in := range p {
		if in.Op == gpu.OpFence {
			if in.Imm&semAcquireRelease == 0 {
				continue
			}
			in.Imm = 0
		}
		out = append(out, in)
	}
	return out
}

// copyPass is the Metal/HLSL mapping: fences survive unchanged.
type copyPass string

func (c copyPass) name() string { return string(c) }

func (copyPass) apply(p gpu.Program) gpu.Program { return slices.Clone(p) }

// foldRedundantFences removes immediately repeated fences.
type foldRedundantFences struct{}

func (foldRedundantFences) name() string { return "fold-redundant-fences" }

func (foldRedundantFences) apply(p gpu.Program) gpu.Program {
	out := make(gpu.Program, 0, len(p))
	for _, in := range p {
		if in.Op == gpu.OpFence && len(out) > 0 && out[len(out)-1].Op == gpu.OpFence {
			continue
		}
		out = append(out, in)
	}
	return out
}

// randomProgram draws a program of up to 24 instructions over every
// op, with fence runs placed at the start, middle and end and fences
// that carry a non-zero Imm (which Vulkan must clear and the other
// backends must keep).
func randomProgram(rng *xrand.Rand) gpu.Program {
	fences := func(p gpu.Program) gpu.Program {
		for k := rng.Intn(4); k > 0; k-- {
			p = append(p, gpu.Instr{Op: gpu.OpFence, Imm: uint32(rng.Intn(3)) * 0x48})
		}
		return p
	}
	body := func(p gpu.Program) gpu.Program {
		for k := rng.Intn(8); k > 0; k-- {
			in := gpu.Instr{
				Op:   gpu.Op(rng.Intn(int(gpu.OpStressStore) + 1)),
				Addr: uint32(rng.Intn(64)),
				Imm:  uint32(rng.Intn(4)),
				Reg:  uint16(rng.Intn(4)),
			}
			p = append(p, in)
		}
		return p
	}
	var p gpu.Program
	p = fences(p)
	p = body(p)
	p = fences(p)
	p = body(p)
	return fences(p)
}

// TestFusedLoweringMatchesReference checks the fused in-place loop
// against the pass-by-pass reference on every backend and driver, over
// seeded random programs and the empty program: Lower must return the
// reference program and pass names without touching its input, and
// the LowerFunc hook must return the same program as a prefix view of
// the buffer it was handed.
func TestFusedLoweringMatchesReference(t *testing.T) {
	rng := xrand.New(0x19a1)
	progs := []gpu.Program{nil, {}}
	for i := 0; i < 400; i++ {
		progs = append(progs, randomProgram(rng))
	}
	for _, backend := range []gpu.Backend{gpu.Metal, gpu.Vulkan, gpu.HLSL} {
		for _, driver := range []DriverVersion{DriverConformant, DriverFenceDropping} {
			tc := &Toolchain{Backend: backend, Driver: driver}
			lower := tc.LowerFunc()
			for i, p := range progs {
				label := fmt.Sprintf("%v/%v/program %d %v", backend, driver, i, p)
				want, wantNames := referenceLower(tc, p)
				in := slices.Clone(p)
				got, names := tc.Lower(in)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Lower = %v, reference %v", label, got, want)
				}
				if !slices.Equal(names, wantNames) {
					t.Fatalf("%s: stage names %v, reference %v", label, names, wantNames)
				}
				if !slices.Equal(in, p) {
					t.Fatalf("%s: Lower mutated its input to %v", label, in)
				}
				buf := slices.Clone(p)
				view := lower(buf)
				if !slices.Equal(view, want) {
					t.Fatalf("%s: LowerFunc = %v, reference %v", label, view, want)
				}
				if len(view) > 0 && &view[0] != &buf[0] {
					t.Fatalf("%s: LowerFunc result is not a prefix view of its input", label)
				}
				if !slices.Equal(buf[:len(view)], view) {
					t.Fatalf("%s: LowerFunc result differs from its input's prefix", label)
				}
			}
		}
	}
}
