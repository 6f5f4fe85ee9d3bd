package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Metric is one reported figure: a value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName reports whether s is a legal metric name: a letter or digit
// first, then at most 63 of [A-Za-z0-9_.-].
func checkName(s string) error {
	if !metricName.MatchString(s) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s)
	}
	return nil
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// metricSet collects metrics, refusing undeclared or badly named ones,
// duplicates and non-finite values.
type metricSet struct {
	m    map[string]Metric
	errs []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]Metric{}} }

func (s *metricSet) set(name string, v float64) {
	if err := checkName(name); err != nil {
		s.errs = append(s.errs, err.Error())
		return
	}
	unit, ok := units[name]
	if !ok {
		s.errs = append(s.errs, fmt.Sprintf("metric %s is not declared", name))
		return
	}
	if _, dup := s.m[name]; dup {
		s.errs = append(s.errs, fmt.Sprintf("metric %s set twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.errs = append(s.errs, fmt.Sprintf("metric %s is not finite", name))
		return
	}
	s.m[name] = Metric{Value: v, Unit: unit}
}

// require fails unless exactly the defs are set.
func (s *metricSet) require(defs []metricDef) {
	for _, d := range defs {
		if _, ok := s.m[d.name]; !ok {
			s.errs = append(s.errs, "missing metric "+d.name)
		}
	}
	if len(s.m) != len(defs) {
		s.errs = append(s.errs, fmt.Sprintf("%d metrics set, %d expected", len(s.m), len(defs)))
	}
}

func (s *metricSet) err() error {
	if len(s.errs) == 0 {
		return nil
	}
	return fmt.Errorf("metrics: %s", strings.Join(s.errs, "; "))
}

// Percentile is one reportable rank of a sample: the value at the
// rank (nearest rank), the sample count, and how many samples lie
// beyond it.
type Percentile struct {
	Value  float64
	N      int
	Beyond int
}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before it may be reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// fails unless at least minBeyond samples lie beyond the rank, so a
// reported tail always rests on that many observations.
func percentile(xs []float64, q float64) (Percentile, error) {
	if q <= 0 || q >= 1 {
		return Percentile{}, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	if n == 0 {
		return Percentile{}, fmt.Errorf("p%g of an empty sample", 100*q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	p := Percentile{N: n, Beyond: n - rank}
	if p.Beyond < minBeyond {
		return p, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, p.Beyond, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	p.Value = sorted[rank-1]
	return p, nil
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// emit prints the result as the last line of standard output.
func emit(r Result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
