package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	p, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90 with 10 beyond of 100", p)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	p, err = percentile(xs[:20], 0.5)
	if err != nil || p.Beyond != 10 || p.Value != 90 {
		t.Fatalf("p50 of 81..100 = %+v, %v; want 90 with 10 beyond", p, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples must be refused")
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(xs, q); err == nil {
			t.Fatalf("percentile %v accepted", q)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "gpu.exec_us_per_launch", "p90", "a-b.c_d"} {
		if err := checkName(ok); err != nil {
			t.Errorf("%q refused: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "sp ace", "slash/no", "pct%", "ünï", string(make([]byte, 65))} {
		if checkName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkName(d.name); err != nil {
			t.Error(err)
		}
	}
	ms := newMetricSet()
	ms.set("setup_s", 1)
	ms.set("setup_s", 2)
	ms.set("bad name", 1)
	ms.set("undeclared", 1)
	ms.set("cells_per_s", math.NaN())
	if len(ms.errs) != 4 {
		t.Fatalf("want duplicate, bad-name, undeclared and NaN errors, got %v", ms.errs)
	}
	if m := ms.m["setup_s"]; m.Value != 1 || m.Unit != "s" {
		t.Fatalf("setup_s = %+v, want 1 s", m)
	}
	ms.require([]metricDef{{"setup_s", "s"}, {"cells_per_s", "1/s"}})
	if len(ms.errs) != 6 {
		t.Fatalf("want a missing-metric and a count error, got %v", ms.errs[4:])
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables the
// program prints in step with the ones BENCHMARK.json declares.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// at builds a span over [a, b] milliseconds.
func at(id, parent int, name string, a, b int) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(a) * time.Millisecond, End: time.Duration(b) * time.Millisecond}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		at(0, noParent, "root", 0, 100),
		at(1, 0, "campaign", 10, 90),
		at(2, 1, "cell", 10, 50),
		at(3, 1, "cell", 50, 85),
		at(4, noParent, "io", 60, 70), // parent found by containment: cell 3
	}
	spans = resolve(spans, []int{0})
	self, err := selfTimes(spans, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 20, 1: 5, 2: 40, 3: 25, 4: 10}
	for id, ms := range want {
		if got := self[id]; got != time.Duration(ms)*time.Millisecond {
			t.Errorf("span %d self = %v, want %dms", id, got, ms)
		}
	}
	if err := checkSelfSum(spans, self, []int{0}); err != nil {
		t.Fatal(err)
	}
	if by := selfByName(spans, self); by["cell"] != 65*time.Millisecond {
		t.Errorf("cell self by name = %v, want 65ms", by["cell"])
	}
}

func TestSelfTimesOverlapAndLanes(t *testing.T) {
	// Two lanes; in lane A two sibling spans overlap, and each instant
	// goes to the later-started one, so the sum still equals the wall.
	spans := []Span{
		at(0, noParent, "laneA", 0, 100),
		at(1, 0, "job", 0, 60),
		at(2, 0, "job", 40, 100),
		at(3, noParent, "laneB", 0, 50),
		at(4, 3, "job", 10, 20),
		at(5, noParent, "outside", 200, 210), // in no root: dropped
	}
	roots := []int{0, 3}
	spans = resolve(spans, roots)
	if len(spans) != 5 {
		t.Fatalf("span outside every root kept: %d spans", len(spans))
	}
	self, err := selfTimes(spans, roots)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 1: 40, 2: 60, 3: 40, 4: 10}
	for id, ms := range want {
		if got := self[id]; got != time.Duration(ms)*time.Millisecond {
			t.Errorf("span %d self = %v, want %dms", id, got, ms)
		}
	}
	if err := checkSelfSum(spans, self, roots); err != nil {
		t.Fatal(err)
	}
}

func TestResolvePrefersSameJob(t *testing.T) {
	spans := []Span{
		at(0, noParent, "root", 0, 100),
		at(1, 0, "run", 0, 100),
		at(2, 0, "run", 10, 90),
		{ID: 3, Parent: noParent, Job: "a", Name: "io", Start: 20 * time.Millisecond, End: 30 * time.Millisecond},
	}
	spans[1].Job = "a"
	spans[2].Job = "b"
	spans = resolve(spans, []int{0})
	if spans[3].Parent != 1 {
		t.Fatalf("io span parent = %d, want the same-job span 1", spans[3].Parent)
	}
}
