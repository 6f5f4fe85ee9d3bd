// Package wgsl models the WebGPU shading-language toolchain the paper
// tests through: litmus tests are rendered as WGSL compute shaders and
// lowered through platform backends (Metal, Vulkan/SPIR-V, HLSL) before
// they reach a device.
//
// Two facilities are provided:
//
//   - Shader source generation: EmitTestShader renders a litmus test as
//     the parallel testing shader of Sec. 4.1 — storage buffers, the
//     co-prime permutation id math, and the per-role atomic operations —
//     mirroring the shaders the paper's artifact generates.
//   - A lowering toolchain: Toolchain lowers kernel programs for a
//     backend in one fused loop that annotates, erases, encodes and
//     folds fences in place. The Vulkan backend models SPIR-V memory
//     semantics on barriers; the defective driver version zeroes those
//     semantics in an intermediate representation, eliding the fences —
//     the compiler bug behind the MP-relacq discovery (Fig. 1b), which
//     led to an AMD driver fix and a WebGPU specification change.
//     LowerFunc is the in-place, allocation-free hook the harness runs
//     on every launch; Lower works on a copy and reports the stage
//     names for diagnostics.
package wgsl

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/gpu"
	"repro/internal/litmus"
)

// DriverVersion distinguishes conformant from defective drivers.
type DriverVersion int

const (
	// DriverConformant lowers fences faithfully.
	DriverConformant DriverVersion = iota
	// DriverFenceDropping reproduces the AMD Vulkan compiler defect:
	// release/acquire semantics are lost in an intermediate
	// representation, so barriers no longer order memory accesses.
	DriverFenceDropping
)

// String names the driver version.
func (v DriverVersion) String() string {
	if v == DriverFenceDropping {
		return "fence-dropping"
	}
	return "conformant"
}

// Toolchain lowers kernel programs for one backend and driver.
type Toolchain struct {
	Backend gpu.Backend
	Driver  DriverVersion
}

// NewToolchain builds the toolchain for a device profile with the given
// driver version.
func NewToolchain(p gpu.Profile, v DriverVersion) *Toolchain {
	return &Toolchain{Backend: p.Backend, Driver: v}
}

// Lower runs the backend pipeline over a copy of p and returns the
// lowered program plus the names of the stages applied, for
// diagnostics. p is never modified.
func (tc *Toolchain) Lower(p gpu.Program) (gpu.Program, []string) {
	return tc.lower(slices.Clone(p)), tc.stageNames()
}

// LowerFunc adapts the toolchain to the harness's program hook. The
// returned hook lowers in place: it rewrites the program it is given
// and returns a prefix of it, so the harness's runner-owned program
// buffers are reused and a launch's lowering allocates nothing.
func (tc *Toolchain) LowerFunc() func(gpu.Program) gpu.Program {
	return tc.lower
}

// lower is the fused pipeline, filtering p in place: its output is
// never longer than its input, so every kept instruction is written at
// or before the position it was read from. Per fence, in pipeline
// order, Vulkan annotates the release/acquire + storage-class
// semantics WGSL's inter-workgroup model requires (SPIR-V's
// OpControlBarrier semantics operand, carried in Imm); the defective
// driver zeroes that operand while restructuring barriers in its
// intermediate representation; encoding elides a fence left without
// release/acquire semantics, since it orders nothing, and clears the
// operand of the rest. Metal and HLSL map fences directly onto
// threadgroup/device memory fences. Every backend then folds
// immediately repeated fences, a standard legal cleanup.
func (tc *Toolchain) lower(p gpu.Program) gpu.Program {
	out := p[:0]
	for _, in := range p {
		if in.Op == gpu.OpFence {
			if tc.Backend == gpu.Vulkan {
				if tc.Driver == DriverFenceDropping {
					continue // semantics lost in the IR round-trip: elided
				}
				in.Imm = 0
			}
			if len(out) > 0 && out[len(out)-1].Op == gpu.OpFence {
				continue
			}
		}
		out = append(out, in)
	}
	return out
}

// stageNames names the pipeline stages lower performs, in order.
func (tc *Toolchain) stageNames() []string {
	switch tc.Backend {
	case gpu.Vulkan:
		spirv := "spirv-memory-semantics"
		if tc.Driver == DriverFenceDropping {
			spirv += "(defective)"
		}
		return []string{"annotate-barrier-semantics", spirv, "encode-fences", "fold-redundant-fences"}
	case gpu.Metal:
		return []string{"msl-threadgroup-lowering", "fold-redundant-fences"}
	default: // HLSL
		return []string{"hlsl-device-memory-barrier", "fold-redundant-fences"}
	}
}

// ---- WGSL source emission ----

// SourceOptions controls shader rendering.
type SourceOptions struct {
	// Parallel renders the PTE shader (permutation id math); otherwise
	// the single-instance shader is rendered.
	Parallel bool
	// WorkgroupSize is the @workgroup_size attribute value.
	WorkgroupSize int
}

// EmitTestShader renders the litmus test as a WGSL compute shader in
// the style of the paper's artifact. The output is for documentation
// and inspection; execution goes through the kernel IR.
func EmitTestShader(t *litmus.Test, opts SourceOptions) string {
	if opts.WorkgroupSize <= 0 {
		opts.WorkgroupSize = 256
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// %s — generated litmus shader", t.Name)
	if t.IsMutant {
		fmt.Fprintf(&b, " (mutant of %s, %s)", t.Base, t.Mutator)
	}
	b.WriteString("\n")
	b.WriteString("struct TestLocations { value: array<atomic<u32>> }\n")
	b.WriteString("struct ReadResults { value: array<u32> }\n")
	b.WriteString("struct TestParams { num_instances: u32, perm_p: u32, perm_q: u32, stride: u32, loc_offset: u32 }\n\n")
	b.WriteString("@group(0) @binding(0) var<storage, read_write> test_locations : TestLocations;\n")
	b.WriteString("@group(0) @binding(1) var<storage, read_write> read_results : ReadResults;\n")
	b.WriteString("@group(0) @binding(2) var<uniform> params : TestParams;\n\n")
	b.WriteString("fn permute(v : u32) -> u32 {\n")
	b.WriteString("  // co-prime modular permutation: no divergence, no simple v+1 pattern\n")
	b.WriteString("  return (v * params.perm_p + params.perm_q) % params.num_instances;\n}\n\n")
	fmt.Fprintf(&b, "@compute @workgroup_size(%d)\n", opts.WorkgroupSize)
	b.WriteString("fn main(@builtin(global_invocation_id) gid : vec3<u32>) {\n")
	if opts.Parallel {
		b.WriteString("  var inst = gid.x;\n")
	} else {
		b.WriteString("  let inst = 0u;\n  if (gid.x >= 1u) { return; }\n")
	}
	reg := 0
	for ti, th := range t.Threads {
		role := "thread"
		if th.Observer {
			role = "observer"
		}
		fmt.Fprintf(&b, "  // %s %d\n", role, ti)
		if opts.Parallel && ti > 0 {
			b.WriteString("  inst = permute(inst);\n")
		}
		for _, in := range th.Instrs {
			idx := func(loc int) string {
				if loc == 0 {
					return "inst * params.stride"
				}
				return fmt.Sprintf("params.num_instances * params.stride + permute(inst) * params.stride + params.loc_offset")
			}
			switch in.Op {
			case litmus.OpLoad:
				fmt.Fprintf(&b, "  read_results.value[%d] = atomicLoad(&test_locations.value[%s]);\n", reg, idx(in.Loc))
				reg++
			case litmus.OpStore:
				fmt.Fprintf(&b, "  atomicStore(&test_locations.value[%s], %du);\n", idx(in.Loc), in.Val)
			case litmus.OpExchange:
				fmt.Fprintf(&b, "  read_results.value[%d] = atomicExchange(&test_locations.value[%s], %du);\n", reg, idx(in.Loc), in.Val)
				reg++
			case litmus.OpFence:
				b.WriteString("  storageBarrier(); // release/acquire fence\n")
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
