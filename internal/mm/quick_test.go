package mm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// randomExecution builds a structurally valid random execution: up to
// three threads of up to three memory events over two locations, with
// occasional fences, unique write values, and read values drawn from
// {initial} ∪ {written values}.
func randomExecution(rng *xrand.Rand) *Execution {
	x := &Execution{}
	nextVal := Val(1)
	var writes [2][]Val
	type pending struct {
		id  int
		loc Loc
	}
	var reads []pending
	threads := rng.IntBetween(1, 3)
	for t := 0; t < threads; t++ {
		n := rng.IntBetween(1, 3)
		for i := 0; i < n; i++ {
			kind := Kind(rng.Intn(4))
			loc := Loc(rng.Intn(2))
			e := Event{ID: len(x.Events), Thread: t, Index: i, Kind: kind, Loc: loc}
			switch kind {
			case Write:
				e.WriteVal = nextVal
				writes[loc] = append(writes[loc], nextVal)
				nextVal++
			case RMW:
				e.WriteVal = nextVal
				writes[loc] = append(writes[loc], nextVal)
				nextVal++
				reads = append(reads, pending{id: e.ID, loc: loc})
			case Read:
				reads = append(reads, pending{id: e.ID, loc: loc})
			}
			x.Events = append(x.Events, e)
		}
	}
	// Assign read values after all writes are known.
	for _, r := range reads {
		candidates := append([]Val{0}, writes[r.loc]...)
		x.Events[r.id].ReadVal = candidates[rng.Intn(len(candidates))]
	}
	return x
}

// TestQuickRandomExecutionsValidate: the generator only produces
// structurally valid executions, and Check never panics on them.
func TestQuickRandomExecutionsValidate(t *testing.T) {
	rng := xrand.New(61)
	f := func(seed uint16) bool {
		_ = seed
		x := randomExecution(rng)
		if err := x.Validate(); err != nil {
			t.Logf("invalid: %v\n%s", err, x.Render())
			return false
		}
		for _, m := range []MCS{SC, TSO, SCPerLocation, RelAcqSCPerLocation} {
			x.Check(m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickModelInclusionsOnRandomExecutions: the strength hierarchy
// SC ⊆ TSO ⊆ SC-per-location and rel-acq ⊆ SC-per-location holds on
// arbitrary executions, not just the curated catalogs.
func TestQuickModelInclusionsOnRandomExecutions(t *testing.T) {
	rng := xrand.New(67)
	f := func(seed uint16) bool {
		_ = seed
		x := randomExecution(rng)
		sc := x.Check(SC).Allowed
		tso := x.Check(TSO).Allowed
		coh := x.Check(SCPerLocation).Allowed
		ra := x.Check(RelAcqSCPerLocation).Allowed
		if sc && !tso {
			t.Logf("SC-allowed, TSO-forbidden:\n%s", x.Render())
			return false
		}
		if tso && !coh {
			t.Logf("TSO-allowed, coherence-forbidden:\n%s", x.Render())
			return false
		}
		if ra && !coh {
			t.Logf("rel-acq-allowed, coherence-forbidden:\n%s", x.Render())
			return false
		}
		if coh && !x.Check(SCPerLocation).Consistent {
			// Allowed executions must also be value-consistent here,
			// since the generator never fabricates values.
			t.Logf("allowed but inconsistent:\n%s", x.Render())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCheckDeterministic: the verdict is a pure function of the
// execution.
func TestQuickCheckDeterministic(t *testing.T) {
	rng := xrand.New(71)
	f := func(seed uint16) bool {
		_ = seed
		x := randomExecution(rng)
		for _, m := range []MCS{SC, TSO, SCPerLocation, RelAcqSCPerLocation} {
			a := x.Check(m)
			b := x.Check(m)
			if a.Allowed != b.Allowed || a.Consistent != b.Consistent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDisallowedHaveCycles: every disallowed consistent execution
// carries an explanation (a nonempty cycle) unless its constraints
// contradict co pinning outright.
func TestQuickDisallowedHaveCycles(t *testing.T) {
	rng := xrand.New(73)
	f := func(seed uint16) bool {
		_ = seed
		x := randomExecution(rng)
		v := x.Check(SCPerLocation)
		if v.Allowed || !v.Consistent {
			return true
		}
		return len(v.Cycle) > 0 && x.ExplainCycle(v.Cycle) != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
