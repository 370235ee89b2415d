package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// batchOp is one end-to-end operation of the batch path: it returns how
// long the user waits for the profile, and an error when the operation
// failed or its output is wrong.
type batchOp struct {
	metric string
	run    func(in *inputs) (time.Duration, error)
}

// batchOps are the four routes to a profile, one per throughput metric.
var batchOps = []batchOp{
	{"inline_mev_per_s", inlineOp},
	{"record_mev_per_s", recordOp},
	{"analyze_mev_per_s", analyzeOp},
	{"replay_mev_per_s", replayOp},
}

// inlineOp profiles a live run (aprof -workload).
func inlineOp(in *inputs) (time.Duration, error) {
	start := time.Now()
	prof := core.New(core.Options{})
	if _, err := workloads.Run(in.spec, in.params, prof); err != nil {
		return 0, err
	}
	got, err := prof.Profile().Export()
	d := time.Since(start)
	return d, checkExport(got, err, in.ref)
}

// recordOp streams a live run's v2 trace into memory (aprof-trace record
// -stream). The recording must be byte-identical to the set-up's.
func recordOp(in *inputs) (time.Duration, error) {
	buf := bytes.NewBuffer(make([]byte, 0, len(in.stream)))
	start := time.Now()
	rec := trace.NewStreamRecorder(buf)
	rec.SetAnnotations(in.w.Annotate)
	_, err := workloads.Run(in.spec, in.params, rec)
	if err == nil {
		err = rec.Close()
	}
	d := time.Since(start)
	if err == nil && !bytes.Equal(buf.Bytes(), in.stream) {
		err = fmt.Errorf("recording differs from the set-up recording (%d vs %d bytes)", buf.Len(), len(in.stream))
	}
	return d, err
}

// analyzeOp decodes the recorded bytes and analyzes them with the
// parallel pipeline, one worker per CPU (aprof-trace analyze).
func analyzeOp(in *inputs) (time.Duration, error) {
	start := time.Now()
	tr, err := trace.Decode(bytes.NewReader(in.stream))
	var prof *core.Profile
	if err == nil {
		prof, err = pipeline.Analyze(tr, analyzeOptions(runtime.GOMAXPROCS(0), nil))
	}
	var got []byte
	if err == nil {
		got, err = prof.Export()
	}
	d := time.Since(start)
	return d, checkExport(got, err, in.ref)
}

func analyzeOptions(workers int, reg *telemetry.Registry) pipeline.Options {
	return pipeline.Options{TieSeed: tieSeed, Workers: workers, Telemetry: reg}
}

// replayOp is the sequential replay of the decoded trace (aprof-trace
// replay).
func replayOp(in *inputs) (time.Duration, error) {
	start := time.Now()
	prof, err := core.FromTrace(in.tr, tieSeed, core.Options{})
	var got []byte
	if err == nil {
		got, err = prof.Export()
	}
	d := time.Since(start)
	return d, checkExport(got, err, in.ref)
}
