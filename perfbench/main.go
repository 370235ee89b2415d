// Command perfbench is the repository's benchmark. For one workload it
// drives the profiler's public entry points from a single process — live
// inline profiling, streaming record, decode-and-analyze, sequential
// replay, and an in-process aprofd fed by two guest connections — checks
// every output byte for byte against the sequential oracle, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mysqld-annotated --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with every telemetry registry
// off. Each throughput is the rate over the whole run. Every end-to-end
// time excludes the CPU time a hypervisor gave to other machines (see
// stealClock) and is scaled to a nominal host speed measured by the
// benchmark's own yardstick (see yardstickNominal); the plain wall-clock
// rates are kept in the full result. --trace 1 is the traced run: the
// benchmark wraps each call into a layer in a span, passes the layers'
// existing telemetry registries in, and reports the per-layer metrics
// instead. Full results, with the host fingerprint, sample counts and
// (traced) every span, are written to .bench_build/results/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root.
const buildDir = ".bench_build"

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed (workloads.Params.Seed)")
	seconds := flag.Float64("seconds", 20, "measurement time of the run")
	traced := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()
	if err := run(os.Stdout, *workloadName, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds float64, traced int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	scratch := filepath.Join(buildDir, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)

	res := &result{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced, Host: hostFingerprint()}
	budget := time.Duration(seconds * float64(time.Second))
	var sp *tracer
	if traced == 1 {
		sp, err = measureLayers(w, seed, budget, scratch, res)
	} else {
		err = measureEndToEnd(w, seed, budget, scratch, res)
	}
	if err != nil {
		return err
	}
	res.Correct = res.tally.failed == 0 && res.tally.attempted > 0
	res.Attempted, res.Failed, res.Failures = res.tally.attempted, res.tally.failed, res.tally.reasons
	if sp != nil {
		for i, d := range selfTimes(sp.spans) {
			sp.spans[i].Self = d
		}
		res.Spans = sp.spans
	}
	path, err := res.save()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(stdout)
	res.report(bw)
	fmt.Fprintf(bw, "full result: %s\n", path)
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}
