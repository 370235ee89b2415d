package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The expected values are Python's statistics.median and
// statistics.quantiles(data, n=4), the figures the acceptance check uses.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data        []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{2.5, 9.1, 4.4, 7.7, 1.2, 8.8, 3.3}, 4.4, 2.5, 8.8},
	} {
		if got := median(tc.data); math.Abs(got-tc.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.data, got, tc.med)
		}
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, want 7, 7", q1, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestRateOverTheRunIsTotalWorkOverTotalTime(t *testing.T) {
	// Three iterations of 6 Mev each, taking 1, 2 and 3 s: 18 Mev in 6 s.
	m := fromRates("r", "Mev/s", []float64{6, 3, 2})
	if math.Abs(m.Value-3) > 1e-12 || m.Samples != 3 || m.Q1 != 2 || m.Q3 != 6 {
		t.Errorf("fromRates = %+v, want value 3 over 3 samples, quartiles 2 and 6", m)
	}
	if m := fromRates("r", "Mev/s", nil); m.NotMeasured == "" {
		t.Errorf("fromRates of no samples = %+v, want not measured", m)
	}
	// At half the nominal host speed a rate reads twice what was measured.
	if s := m.scaled(2); s.Value != 6 || s.Q1 != 4 || s.Q3 != 12 || s.Samples != 3 {
		t.Errorf("scaled(2) of %+v = %+v", m, s)
	}
}

func TestStealClockChargesTheTimedPartItsShare(t *testing.T) {
	stat := filepath.Join(t.TempDir(), "stat")
	write := func(steal int) {
		line := fmt.Sprintf("cpu  100 0 50 1000 5 0 3 %d 0 0\ncpu0 50 0 25 500 2 0 1 0 0 0\n", steal)
		if err := os.WriteFile(stat, []byte(line), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c := &stealClock{path: stat, ncpu: 2}
	write(40)
	if got, err := c.read(); err != nil || got != 200*time.Millisecond {
		t.Fatalf("read = %v, %v; want 40 ticks over 2 CPUs = 200ms", got, err)
	}
	// The call steals 20 ticks over 2 CPUs (100ms); the timed part is
	// about half of the call, so it is charged about half of that.
	tm, err := c.measure(func() (time.Duration, error) {
		time.Sleep(20 * time.Millisecond)
		write(60)
		return 10 * time.Millisecond, nil
	})
	if err != nil || tm.wall != 10*time.Millisecond || tm.stolen <= 0 || tm.stolen > 50*time.Millisecond {
		t.Errorf("measure = %+v, %v; want 10ms wall charged at most half of 100ms", tm, err)
	}
	if tm.onCPU() != tm.wall-tm.stolen || math.Abs(tm.share()-float64(tm.stolen)/float64(tm.wall)) > 1e-12 {
		t.Errorf("onCPU %v, share %v of %+v", tm.onCPU(), tm.share(), tm)
	}
	if err := os.WriteFile(stat, []byte("cpu  100 0 50 1000\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if got, err := c.read(); err != nil || got != 0 {
		t.Errorf("read without a steal column = %v, %v; want 0", got, err)
	}
	if err := os.WriteFile(stat, []byte("intr 5\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := c.read(); err == nil {
		t.Error("read of a file without the cpu total should fail")
	}
}

func TestHighestPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for _, n := range []int{20, 100, 1000, 1234, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7919)%n] = float64(i) // distinct values, shuffled
		}
		p := highestPercentile(n)
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond it, want >= 10", n, p, v, beyond)
		}
		if n == 1000 && v != 989 {
			t.Errorf("p99 of 0..999 = %v, want 989", v)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "analyze", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "worker", Start: 20 * ms, End: 50 * ms}, // overlaps decode
		{ID: 4, Parent: 1, Name: "worker", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "late", Start: 90 * ms, End: 120 * ms}, // clipped at 100
		{ID: 6, Parent: 4, Name: "grandchild", Start: 0, End: 100 * ms}, // not a child of 1
		{ID: 7, Name: "other root", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	if self[0] != 40*ms {
		t.Errorf("self time of the parent = %v, want 40ms", self[0])
	}
	if self[1] != 20*ms {
		t.Errorf("self time of a leaf = %v, want its duration 20ms", self[1])
	}
	if self[3] != 0 {
		t.Errorf("self time of a span its child covers = %v, want 0", self[3])
	}
}

func TestTracerRecordsNestingAndIterations(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("analyze", 0, 3)
	tr.do("trace.Decode", root, 3, func(int) { time.Sleep(time.Millisecond) })
	tr.end(root)
	tr.do("analyze", 0, 4, func(int) {})
	if n := len(tr.durations("trace.Decode", "analyze")); n != 1 {
		t.Fatalf("decode spans under analyze = %d, want 1", n)
	}
	if n := len(tr.durations("trace.Decode", "replay")); n != 0 {
		t.Errorf("decode spans under replay = %d, want 0", n)
	}
	if n := len(tr.durations("analyze", "")); n != 2 {
		t.Errorf("analyze spans = %d, want 2", n)
	}
	s := tr.spans[1]
	if s.Parent != root || s.Iter != 3 || s.Workload != "w" || s.Duration() < time.Millisecond {
		t.Errorf("child span = %+v", s)
	}
	if self := selfTimes(tr.spans)[root-1]; self < 0 || self > tr.spans[0].Duration()-time.Millisecond {
		t.Errorf("self time %v of a root whose child slept 1ms (root %v)", self, tr.spans[0].Duration())
	}
}

func TestLayerSumCheck(t *testing.T) {
	c := newLayerSumCheck([]float64{100, 102, 98}, []float64{60, 61, 59}, []float64{10, 10, 10}, []float64{29, 30, 28}, []float64{1, 1, 1})
	if c.SumMS != 100 || c.UnaccountedMS != 0 || !c.Pass {
		t.Errorf("matching layers: %+v", c)
	}
	c = newLayerSumCheck([]float64{150, 151, 149}, []float64{60, 61, 59}, []float64{10, 10, 10}, []float64{29, 30, 28}, []float64{1, 1, 1})
	if c.UnaccountedMS != 50 || c.Pass {
		t.Errorf("a 50ms gap must fail the check: %+v", c)
	}
}
