package litmus

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mm"
	"repro/internal/xrand"
)

func TestCatalogValidates(t *testing.T) {
	for _, tc := range Catalog() {
		if err := tc.Validate(); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range Catalog() {
		if seen[tc.Name] {
			t.Errorf("duplicate catalog test name %q", tc.Name)
		}
		seen[tc.Name] = true
	}
}

// TestCoherenceTargetsDisallowed verifies that the targets of the
// coherence conformance tests are disallowed under SC-per-location —
// i.e. the tests test what they claim to test.
func TestCoherenceTargetsDisallowed(t *testing.T) {
	for _, tc := range []*Test{CoRR(), CoWW(), CoWR(), CoRW()} {
		x, err := tc.TargetExecution()
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		v := x.Check(mm.SCPerLocation)
		if v.Allowed {
			t.Errorf("%s: target %s should be disallowed under SC-per-location", tc.Name, tc.Target)
		}
	}
}

// TestWeakTargetsAllowedUnderCoherence verifies the classic weak-memory
// shapes are allowed by SC-per-location but forbidden under SC.
func TestWeakTargetsAllowedUnderCoherence(t *testing.T) {
	for _, tc := range []*Test{MP(), SB(), LB(), S(), R(), TwoPlusTwoW()} {
		x, err := tc.TargetExecution()
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if v := x.Check(mm.SCPerLocation); !v.Allowed {
			t.Errorf("%s: weak target must be allowed under SC-per-location", tc.Name)
		}
		if v := x.Check(mm.SC); v.Allowed {
			t.Errorf("%s: weak target must be forbidden under SC", tc.Name)
		}
	}
}

// TestRelAcqTargetsDisallowed verifies the fenced shapes are forbidden
// under rel-acq-SC-per-location but allowed under plain coherence.
func TestRelAcqTargetsDisallowed(t *testing.T) {
	for _, tc := range []*Test{MPRelAcq(), LBRelAcq(), SRelAcq()} {
		x, err := tc.TargetExecution()
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if v := x.Check(mm.RelAcqSCPerLocation); v.Allowed {
			t.Errorf("%s: target must be disallowed under rel-acq model", tc.Name)
		}
		if v := x.Check(mm.SCPerLocation); !v.Allowed {
			t.Errorf("%s: target must be allowed under plain coherence", tc.Name)
		}
	}
}

func TestClassifySequentialOutcomes(t *testing.T) {
	// An outcome in which every read sees the latest same-thread write
	// (or 0 if none) and every location ends with its po-last write must
	// be allowed by every catalog test: it corresponds to each thread
	// running to completion in turn.
	for _, tc := range Catalog() {
		o := Outcome{Regs: make([]mm.Val, tc.NumRegs), Final: make([]mm.Val, tc.NumLocs)}
		for l := range o.Final {
			o.Final[l] = AnyFinal
		}
		for _, th := range tc.Threads {
			lastWrite := map[int]mm.Val{}
			for _, in := range th.Instrs {
				if in.Reads() {
					o.Regs[in.Reg] = lastWrite[in.Loc]
				}
				if in.Writes() {
					lastWrite[in.Loc] = in.Val
					o.Final[in.Loc] = in.Val
				}
			}
		}
		v, err := tc.Classify(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if !v.Allowed {
			t.Errorf("%s: sequential outcome %s classified disallowed", tc.Name, o.Key())
		}
	}
}

func TestClassifyInconsistentFinals(t *testing.T) {
	tc := CoWW() // writes 1 then 2 to x
	// A final value of 0 on a written location is corruption.
	v, err := tc.Classify(Outcome{Final: []mm.Val{0}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Allowed || v.Consistent {
		t.Fatalf("final 0 on written location: got %+v, want inconsistent+disallowed", v)
	}
	// A final value never written is also corruption.
	v, err = tc.Classify(Outcome{Final: []mm.Val{7}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Allowed || v.Consistent {
		t.Fatalf("unwritten final value: got %+v", v)
	}
	// AnyFinal is always fine.
	v, err = tc.Classify(Outcome{Final: []mm.Val{AnyFinal}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Allowed {
		t.Fatal("AnyFinal outcome should be allowed")
	}
}

func TestClassifyCoRR(t *testing.T) {
	tc := CoRR()
	weak := Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}}
	v, err := tc.Classify(weak)
	if err != nil {
		t.Fatal(err)
	}
	if v.Allowed {
		t.Fatal("CoRR target outcome classified allowed")
	}
	if !tc.Target.Matches(weak) {
		t.Fatal("CoRR target condition does not match its own outcome")
	}
	ok := Outcome{Regs: []mm.Val{0, 1}, Final: []mm.Val{1}}
	if v, _ := tc.Classify(ok); !v.Allowed {
		t.Fatal("CoRR strong outcome classified disallowed")
	}
	if tc.Target.Matches(ok) {
		t.Fatal("target matched a strong outcome")
	}
}

func TestConditionMatches(t *testing.T) {
	c := Condition{Regs: map[int]mm.Val{0: 1, 1: 0}, Final: map[int]mm.Val{0: 2}}
	if !c.Matches(Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{2}}) {
		t.Fatal("exact match failed")
	}
	if c.Matches(Outcome{Regs: []mm.Val{1, 1}, Final: []mm.Val{2}}) {
		t.Fatal("wrong register matched")
	}
	if c.Matches(Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{3}}) {
		t.Fatal("wrong final matched")
	}
	if c.Matches(Outcome{Regs: []mm.Val{1}, Final: []mm.Val{2}}) {
		t.Fatal("out-of-range register matched")
	}
	if !(Condition{}).Matches(Outcome{}) {
		t.Fatal("empty condition must match everything")
	}
	if !(Condition{}).Empty() || c.Empty() {
		t.Fatal("Empty() wrong")
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{Regs: map[int]mm.Val{1: 0, 0: 1}, Final: map[int]mm.Val{0: 2}}
	if got := c.String(); got != "r0==1 && r1==0 && x==2" {
		t.Fatalf("Condition.String() = %q", got)
	}
	if got := (Condition{}).String(); got != "true" {
		t.Fatalf("empty Condition.String() = %q", got)
	}
}

func TestOutcomeKey(t *testing.T) {
	o := Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{2, 3}}
	if got := o.Key(); got != "r0=1 r1=0 | x=2 y=3" {
		t.Fatalf("Outcome.Key() = %q", got)
	}
	if got := (Outcome{Regs: []mm.Val{5}}).Key(); got != "r0=5" {
		t.Fatalf("Key without finals = %q", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := CoRR()
	cases := []struct {
		name   string
		mutate func(*Test)
	}{
		{"no name", func(t *Test) { t.Name = "" }},
		{"no threads", func(t *Test) { t.Threads = nil }},
		{"empty thread", func(t *Test) { t.Threads[0].Instrs = nil }},
		{"loc out of range", func(t *Test) { t.Threads[1].Instrs[0].Loc = 9 }},
		{"reg out of range", func(t *Test) { t.Threads[0].Instrs[0].Reg = 9 }},
		{"dup reg", func(t *Test) { t.Threads[0].Instrs[1].Reg = 0 }},
		{"zero store", func(t *Test) { t.Threads[1].Instrs[0].Val = 0 }},
		{"target bad reg", func(t *Test) { t.Target.Regs[9] = 1 }},
		{"target bad loc", func(t *Test) { t.Target.Final = map[int]mm.Val{9: 1} }},
	}
	for _, c := range cases {
		tc := *base
		tc.Threads = append([]Thread(nil), base.Threads...)
		for i := range tc.Threads {
			tc.Threads[i].Instrs = append([]Instr(nil), base.Threads[i].Instrs...)
		}
		tc.Target = Condition{Regs: map[int]mm.Val{}, Final: map[int]mm.Val{}}
		for k, v := range base.Target.Regs {
			tc.Target.Regs[k] = v
		}
		c.mutate(&tc)
		if err := tc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid test", c.name)
		}
	}
}

func TestValidateRejectsDuplicateStoreValues(t *testing.T) {
	b := NewBuilder("dup", mm.SCPerLocation).
		Thread().Store(0, 1).
		Thread().Store(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted duplicate store values")
		}
	}()
	b.Build()
}

func TestExecutionShapes(t *testing.T) {
	tc := MPRelAcq()
	o := Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1, 1}}
	x, err := tc.Execution(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(x.Events))
	}
	// Final values pin the (single) writers of x and y as co-last.
	if len(x.CoLast) != 2 {
		t.Fatalf("CoLast = %v, want both locations pinned", x.CoLast)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wrong-arity outcomes must error.
	if _, err := tc.Execution(Outcome{Regs: []mm.Val{1}}); err == nil {
		t.Fatal("short register vector accepted")
	}
	if _, err := tc.Execution(Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}}); err == nil {
		t.Fatal("short final vector accepted")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	a := Outcome{Regs: []mm.Val{0, 0}}
	b := Outcome{Regs: []mm.Val{1, 0}}
	h.Add(a, false, false)
	h.Add(a, false, false)
	h.Add(b, true, true)
	h.AddN(b, true, false, 3)
	h.AddN(a, false, false, 0) // no-op
	if h.Total() != 6 || h.TargetCount() != 4 || h.Violations() != 1 {
		t.Fatalf("totals wrong: %d %d %d", h.Total(), h.TargetCount(), h.Violations())
	}
	if h.Distinct() != 2 {
		t.Fatalf("Distinct() = %d", h.Distinct())
	}
	if h.Count(a.Key()) != 2 || h.Count(b.Key()) != 4 {
		t.Fatal("per-key counts wrong")
	}
	h2 := NewHistogram()
	h2.Add(a, false, true)
	h.Merge(h2)
	if h.Total() != 7 || h.Violations() != 2 {
		t.Fatal("Merge wrong")
	}
	s := h.String()
	if !strings.Contains(s, "total=7") {
		t.Fatalf("String() = %q", s)
	}
}

func TestStringRendering(t *testing.T) {
	s := CoRR().String()
	for _, want := range []string{"CoRR (conformance", "r0 = atomicLoad(&x)", "atomicStore(&x, 1)", "Target: r0==1 && r1==0"} {
		if !strings.Contains(s, want) {
			t.Errorf("CoRR.String() missing %q:\n%s", want, s)
		}
	}
	s = MPRelAcq().String()
	if !strings.Contains(s, "fence(release/acquire)") {
		t.Errorf("MP-relacq rendering missing fence:\n%s", s)
	}
}

func TestWorkerThreadsAndCounts(t *testing.T) {
	tc := NewBuilder("obs", mm.SCPerLocation).
		Thread().Store(0, 1).Store(0, 2).
		Observer().Load(0).Load(0).
		Target(Condition{}).
		Build()
	if got := tc.WorkerThreads(); got != 1 {
		t.Fatalf("WorkerThreads() = %d", got)
	}
	if got := tc.Instructions(); got != 4 {
		t.Fatalf("Instructions() = %d", got)
	}
	if tc.HasFences() {
		t.Fatal("HasFences() true for fence-free test")
	}
	if !MPRelAcq().HasFences() {
		t.Fatal("HasFences() false for MP-relacq")
	}
}

// TestClassifyNeverPanics is a property test: Classify must handle any
// outcome whose values come from the test's writes or zero.
func TestClassifyNeverPanics(t *testing.T) {
	r := xrand.New(99)
	for _, tc := range Catalog() {
		// Collect candidate values per location: 0 plus all writes.
		valsByLoc := make([][]mm.Val, tc.NumLocs)
		for l := range valsByLoc {
			valsByLoc[l] = []mm.Val{0}
		}
		regLoc := make([]int, tc.NumRegs)
		for _, th := range tc.Threads {
			for _, in := range th.Instrs {
				if in.Writes() {
					valsByLoc[in.Loc] = append(valsByLoc[in.Loc], in.Val)
				}
				if in.Reads() {
					regLoc[in.Reg] = in.Loc
				}
			}
		}
		for trial := 0; trial < 50; trial++ {
			o := Outcome{Regs: make([]mm.Val, tc.NumRegs), Final: make([]mm.Val, tc.NumLocs)}
			for i := range o.Regs {
				vals := valsByLoc[regLoc[i]]
				o.Regs[i] = vals[r.Intn(len(vals))]
			}
			for l := range o.Final {
				vals := valsByLoc[l]
				o.Final[l] = vals[r.Intn(len(vals))]
			}
			if _, err := tc.Classify(o); err != nil {
				t.Fatalf("%s: Classify(%s): %v", tc.Name, o.Key(), err)
			}
		}
	}
}

// TestTargetImpliesClassification: for conformance tests in the catalog
// whose model is the test's model, the target outcome must classify as
// disallowed, and for the weak classics it must classify as allowed.
func TestTargetImpliesClassification(t *testing.T) {
	disallowed := map[string]bool{
		"CoRR": true, "CoWW": true, "CoWR": true, "CoRW": true,
		"MP-relacq": true, "LB-relacq": true, "S-relacq": true,
	}
	for _, tc := range Catalog() {
		x, err := tc.TargetExecution()
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		v := x.Check(tc.Model)
		if disallowed[tc.Name] && v.Allowed {
			t.Errorf("%s: target should be disallowed under %v", tc.Name, tc.Model)
		}
		if !disallowed[tc.Name] && !v.Allowed {
			t.Errorf("%s: target should be allowed under %v", tc.Name, tc.Model)
		}
	}
}

func TestConditionMatchesIsDeterministic(t *testing.T) {
	// quick-check that Matches is a pure function of its inputs.
	c := Condition{Regs: map[int]mm.Val{0: 1}}
	f := func(v uint8) bool {
		o := Outcome{Regs: []mm.Val{mm.Val(v)}}
		return c.Matches(o) == c.Matches(o)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClassifyMPRelAcq(b *testing.B) {
	tc := MPRelAcq()
	o := Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1, 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Classify(o); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValueDomain: the domain is {0} plus stored values, and InDomain
// flags any outcome carrying a value outside it — the corruption
// detector the harness builds on.
func TestValueDomain(t *testing.T) {
	mp := MP()
	dom := mp.ValueDomain()
	if !dom[0] || !dom[1] {
		t.Fatalf("MP domain missing 0 or 1: %v", dom)
	}
	good := Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1, 1}}
	if !mp.InDomain(good, dom) {
		t.Fatal("legitimate outcome flagged out of domain")
	}
	for _, bad := range []Outcome{
		{Regs: []mm.Val{0xDEAD0001, 0}, Final: []mm.Val{1, 1}},
		{Regs: []mm.Val{1, 0}, Final: []mm.Val{0xDEADBEEF, 1}},
		{Regs: []mm.Val{2, 0}, Final: []mm.Val{1, 1}},
	} {
		if mp.InDomain(bad, dom) {
			t.Fatalf("corrupted outcome %v passed domain validation", bad)
		}
	}
	// Every value a catalog test stores is inside its own domain, so
	// domain validation can never flag a legitimate execution.
	for _, tc := range Catalog() {
		d := tc.ValueDomain()
		for _, th := range tc.Threads {
			for _, in := range th.Instrs {
				if in.Writes() && !d[in.Val] {
					t.Fatalf("%s: stored value %d missing from domain", tc.Name, in.Val)
				}
			}
		}
	}
}
