package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported figure. A per-layer metric that could not be
// measured has NotMeasured set to the reason, and no value.
type metric struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"`
	Samples     int     `json:"samples"`
	Q1          float64 `json:"q1,omitempty"`
	Q3          float64 `json:"q3,omitempty"`
	NotMeasured string  `json:"not_measured,omitempty"`
}

// fromSamples reports the median of xs, with its quartiles and count.
func fromSamples(name, unit string, xs []float64) metric {
	if len(xs) == 0 {
		return notMeasured(name, unit, "no successful sample")
	}
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Value: median(xs), Samples: len(xs), Q1: q1, Q3: q3}
}

// fromRates reports a route's rate over the whole run from the rates xs
// of its iterations, which all do the same work: the harmonic mean, that
// is every iteration's work over their total time, with the per-iteration
// quartiles and count. On a host whose speed switches between a fast and
// a slow state for seconds at a time, the iterations' median jumps between
// the two states with the share of the run each took, while the rate over
// the whole run moves in proportion to it.
func fromRates(name, unit string, xs []float64) metric {
	m := fromSamples(name, unit, xs)
	if m.NotMeasured == "" {
		m.Value = harmonicMean(xs)
	}
	return m
}

// scaled multiplies the metric's value and quartiles by k.
func (m metric) scaled(k float64) metric {
	m.Value, m.Q1, m.Q3 = m.Value*k, m.Q1*k, m.Q3*k
	return m
}

// single reports one derived value; NaN or Inf means not measured, for
// the given reason.
func single(name, unit string, v float64, samples int, reason string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return notMeasured(name, unit, reason)
	}
	return metric{Name: name, Unit: unit, Value: v, Samples: samples}
}

func notMeasured(name, unit, reason string) metric {
	return metric{Name: name, Unit: unit, Value: math.NaN(), NotMeasured: reason}
}

// result is everything one run measured.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     int            `json:"trace"`
	Host      fingerprint    `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Metrics   []metric       `json:"metrics"`
	Notes     []string       `json:"notes,omitempty"`
	LayerSum  *layerSumCheck `json:"layer_sum,omitempty"`
	// Samples holds each end-to-end metric's raw per-iteration values (per
	// frame for the lag metrics), for distributions the summary hides.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Spans   []span               `json:"spans,omitempty"`

	tally tally
}

func (r *result) add(ms ...metric) { r.Metrics = append(r.Metrics, ms...) }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// save writes the full result, NaNs as null, under buildDir/results.
func (r *result) save() (string, error) {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	clean := *r
	clean.Metrics = nil
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) {
			m.Value = 0
		}
		clean.Metrics = append(clean.Metrics, m)
	}
	b, err := json.MarshalIndent(&clean, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o666)
}

// report prints the human-readable result.
func (r *result) report(w io.Writer) {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "traced (per-layer)"
	}
	fmt.Fprintf(w, "perfbench %s run: workload=%s seed=%d seconds=%g\n", kind, r.Workload, r.Seed, r.Seconds)
	h := r.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d GOGC=%s %s kernel=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.Kernel, h.CPUModel)
	for _, m := range r.Metrics {
		if m.NotMeasured != "" {
			fmt.Fprintf(w, "  %-36s NOT MEASURED: %s\n", m.Name, m.NotMeasured)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Samples > 1 && m.Q1 != 0 {
			fmt.Fprintf(w, "  q1=%.4f q3=%.4f spread=%.1f%%", m.Q1, m.Q3, 100*(m.Q3-m.Q1)/math.Abs(m.Value))
		}
		fmt.Fprintln(w)
	}
	if c := r.LayerSum; c != nil {
		fmt.Fprintf(w, "layer sum: decode %.3f + plan %.3f + run %.3f + export %.3f = %.3f ms; analyze %.3f ms; unaccounted %+.3f ms; spread %.3f ms: %s\n",
			c.DecodeMS, c.PlanMS, c.RunMS, c.ExportMS, c.SumMS, c.AnalyzeMS, c.UnaccountedMS, c.SpreadMS, passFail(c.Pass))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.tally.attempted, r.tally.failed)
	for _, f := range r.tally.reasons {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// summaryMetric is a metric as the last output line carries it. A metric
// that could not be measured has a null value and the reason.
type summaryMetric struct {
	Value       *float64 `json:"value"`
	Unit        string   `json:"unit"`
	NotMeasured string   `json:"not_measured,omitempty"`
}

// summary is the last output line.
func (r *result) summary() any {
	ms := make(map[string]summaryMetric, len(r.Metrics))
	for _, m := range r.Metrics {
		s := summaryMetric{Unit: m.Unit, NotMeasured: m.NotMeasured}
		if m.NotMeasured == "" {
			v := m.Value
			s.Value = &v
		}
		ms[m.Name] = s
	}
	return struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// fingerprint identifies the host and runtime a result was measured on.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	f := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if f.GOGC == "" {
		f.GOGC = "100 (default)"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		f.Kernel = b.String()
	}
	return f
}

// residentMB reads the process's current and peak resident set size from
// /proc/self/status.
func residentMB() (cur, peak float64, err error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, err
	}
	var found int
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ":")
		var dst *float64
		switch k {
		case "VmRSS":
			dst = &cur
		case "VmHWM":
			dst = &peak
		default:
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %s in /proc/self/status: %w", k, err)
		}
		*dst = kb / 1024
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/proc/self/status lacks VmRSS or VmHWM")
	}
	return cur, peak, nil
}

// resetPeakRSS restarts the peak resident set size from the current one.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
