package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// windowEvents is the window size of the cut-and-merge measurement: two
// guests' frames, about what one aprofd frontier advance feeds.
const windowEvents = 2 * frameEvents

// layerSumCheck compares the analyze route with the sum of its layers
// measured one by one: decode + plan + run + export should account for
// the whole of Decode → pipeline.Analyze → Export, within the spread.
type layerSumCheck struct {
	DecodeMS      float64 `json:"decode_ms"`
	PlanMS        float64 `json:"plan_ms"`
	RunMS         float64 `json:"run_ms"`
	ExportMS      float64 `json:"export_ms"`
	SumMS         float64 `json:"sum_ms"`
	AnalyzeMS     float64 `json:"analyze_ms"`
	UnaccountedMS float64 `json:"unaccounted_ms"`
	SpreadMS      float64 `json:"spread_ms"`
	Pass          bool    `json:"pass"`
}

// newLayerSumCheck takes per-iteration analyze times and per-iteration
// layer times (ms). The spread is the quartile distance of the analyze
// times plus that of the per-iteration layer sums: the noise of the
// difference of the two medians.
func newLayerSumCheck(analyzeMS, decodeMS, planMS, runMS, exportMS []float64) *layerSumCheck {
	sums := make([]float64, min(len(decodeMS), len(planMS), len(runMS), len(exportMS)))
	for i := range sums {
		sums[i] = decodeMS[i] + planMS[i] + runMS[i] + exportMS[i]
	}
	c := &layerSumCheck{
		DecodeMS: median(decodeMS), PlanMS: median(planMS), RunMS: median(runMS), ExportMS: median(exportMS),
		SumMS: median(sums), AnalyzeMS: median(analyzeMS),
	}
	aq1, aq3 := quartiles(analyzeMS)
	sq1, sq3 := quartiles(sums)
	c.UnaccountedMS = c.AnalyzeMS - c.SumMS
	c.SpreadMS = (aq3 - aq1) + (sq3 - sq1)
	c.Pass = math.Abs(c.UnaccountedMS) <= c.SpreadMS
	return c
}

// layerRun is the state of one traced run.
type layerRun struct {
	in  *inputs
	sp  *tracer
	res *result

	inlineRegs   []*telemetry.Registry // one per traced inline run
	pipeRegs     []*telemetry.Registry // one per telemetry-on analyze
	chunkReused  uint64                // shadow chunks recycled during inline runs
	chunkFresh   uint64                // shadow chunks allocated during inline runs
	guestFrames  [2][][]byte           // captured aprofd frames, per guest
	daemonCounts []map[string]uint64   // daemon/* counter deltas, per flood
}

// measureLayers is the traced run: every call into a layer is wrapped in a
// span by this file, the layers' own registries are passed in, and the
// per-layer metrics are derived from span durations and counters.
func measureLayers(w workload, seed int64, budget time.Duration, scratch string, res *result) (*tracer, error) {
	daemonReg := telemetry.NewRegistry()
	in, err := setup(w, seed, filepath.Join(scratch, "setup"), daemonReg)
	if err != nil {
		return nil, err
	}
	defer in.close()
	lr := &layerRun{in: in, sp: newTracer(w.Name), res: res}
	if lr.guestFrames, err = captureFrames(in); err != nil {
		return nil, err
	}

	ops := []func(i int){
		lr.native,
		lr.inline("inline", in.params, core.Options{}),
		lr.inline("inline.unbatched", withUnbatched(in.params), core.Options{}),
		lr.inline("inline.suppress", in.params, core.Options{Sampling: core.SamplingSuppress}),
		lr.record,
		lr.analyze("analyze", false),
		lr.analyze("analyze.telemetry", true),
		lr.analyzeLayers,
		lr.analyzeWorkers("analyze.w1", 1),
		lr.analyzeWorkers("analyze.w2", 2),
		lr.replay,
		lr.merge,
		lr.walkRuns,
		lr.incremental,
		lr.windows,
		lr.streamDecode,
	}
	loop(budget*45/100, 5, func(i int) bool {
		for k := range ops {
			freshHeap()
			ops[(i+k)%len(ops)](i) // rotate which layer runs first
		}
		return true
	})

	for i := 0; i < 2; i++ {
		before := daemonReg.Snapshot().Counters
		freshHeap()
		var err error
		lr.sp.do("aprofd.flood", 0, i, func(int) { _, err = in.flood(fmt.Sprintf("flood-%d", i)) })
		res.tally.record("aprofd flood", err)
		after := daemonReg.Snapshot().Counters
		delta := make(map[string]uint64)
		for k, v := range after {
			delta[k] = v - before[k]
		}
		lr.daemonCounts = append(lr.daemonCounts, delta)
	}
	var lag, late []float64
	for i := 0; len(late) < minLagFrames; i++ {
		freshHeap()
		var l, g []time.Duration
		var err error
		lr.sp.do("aprofd.paced", 0, i, func(int) { l, g, err = in.paced(fmt.Sprintf("paced-%d", i)) })
		res.tally.record("aprofd paced", err)
		if err != nil {
			break
		}
		lag, late = append(lag, millis(l)...), append(late, millis(g)...)
	}

	lr.report(lag, late)
	return lr.sp, nil
}

func withUnbatched(p workloads.Params) workloads.Params {
	p.Unbatched = true
	return p
}

// captureFrames records each guest's event stream the way its aprofd
// client does and keeps the frames, for the stream-decoder measurement.
func captureFrames(in *inputs) ([2][][]byte, error) {
	var out [2][][]byte
	for g := range in.guests {
		var buf bytes.Buffer
		rec := trace.NewStreamRecorder(&buf)
		rec.SetAnnotations(in.w.Annotate)
		env := &replayEnv{tr: in.tr}
		rec.Attach(env)
		tools := []guest.Tool{rec}
		last := 0
		cut := func() {
			out[g] = append(out[g], bytes.Clone(buf.Bytes()[last:]))
			last = buf.Len()
		}
		for k, e := range in.guests[g] {
			env.now = e.TS
			if err := trace.Dispatch(e, tools); err != nil {
				return out, err
			}
			if (k+1)%frameEvents == 0 {
				rec.Flush()
				cut()
			}
		}
		if err := rec.Close(); err != nil {
			return out, err
		}
		cut()
	}
	return out, nil
}

// shadowChunks reads the process-wide shadow chunk tallies.
func shadowChunks() (recycled, allocated uint64) {
	reg := telemetry.NewRegistry()
	shadow.PublishTelemetry(reg)
	g := reg.Snapshot().Gauges
	return uint64(g["shadow/chunks_recycled"]), uint64(g["shadow/chunks_allocated"])
}

func (lr *layerRun) native(i int) {
	root := lr.sp.begin("native", 0, i)
	var err error
	lr.sp.do("workloads.Run", root, i, func(int) { _, err = workloads.Run(lr.in.spec, lr.in.params) })
	lr.sp.end(root)
	lr.res.tally.record("native", err)
}

// inline profiles a live run with the given parameters and options, with
// the guest's and the profiler's registries passed in.
func (lr *layerRun) inline(name string, params workloads.Params, opts core.Options) func(int) {
	return func(i int) {
		reg := telemetry.NewRegistry()
		params.Telemetry, opts.Telemetry = reg, reg
		reused0, fresh0 := shadowChunks()
		root := lr.sp.begin(name, 0, i)
		prof := core.New(opts)
		var got []byte
		var err error
		lr.sp.do("workloads.Run", root, i, func(int) { _, err = workloads.Run(lr.in.spec, params, prof) })
		if err == nil {
			lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = prof.Profile().Export() })
		}
		lr.sp.end(root)
		lr.res.tally.record(name, checkExport(got, err, lr.in.ref))
		if name == "inline" {
			reused1, fresh1 := shadowChunks()
			lr.chunkReused += reused1 - reused0
			lr.chunkFresh += fresh1 - fresh0
			lr.inlineRegs = append(lr.inlineRegs, reg)
		}
	}
}

func (lr *layerRun) record(i int) {
	buf := bytes.NewBuffer(make([]byte, 0, len(lr.in.stream)))
	root := lr.sp.begin("record", 0, i)
	rec := trace.NewStreamRecorder(buf)
	rec.SetAnnotations(lr.in.w.Annotate)
	var err error
	lr.sp.do("workloads.Run", root, i, func(int) { _, err = workloads.Run(lr.in.spec, lr.in.params, rec) })
	lr.sp.do("trace.StreamRecorder.Close", root, i, func(int) {
		if cerr := rec.Close(); err == nil {
			err = cerr
		}
	})
	lr.sp.end(root)
	if err == nil && !bytes.Equal(buf.Bytes(), lr.in.stream) {
		err = fmt.Errorf("recording differs from the set-up recording")
	}
	lr.res.tally.record("record", err)
}

// analyze is the analyze route, split into its three layer calls; with
// telemetry on, the pipeline gets a fresh registry.
func (lr *layerRun) analyze(name string, telemetryOn bool) func(int) {
	return func(i int) {
		var reg *telemetry.Registry
		if telemetryOn {
			reg = telemetry.NewRegistry()
			lr.pipeRegs = append(lr.pipeRegs, reg)
		}
		root := lr.sp.begin(name, 0, i)
		var tr *trace.Trace
		var prof *core.Profile
		var got []byte
		var err error
		lr.sp.do("trace.Decode", root, i, func(int) { tr, err = trace.Decode(bytes.NewReader(lr.in.stream)) })
		if err == nil {
			lr.sp.do("pipeline.Analyze", root, i, func(int) {
				prof, err = pipeline.Analyze(tr, analyzeOptions(runtime.GOMAXPROCS(0), reg))
			})
		}
		if err == nil {
			lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = prof.Export() })
		}
		lr.sp.end(root)
		lr.res.tally.record(name, checkExport(got, err, lr.in.ref))
	}
}

// analyzeLayers runs the analysis one layer at a time: Decode, BuildPlan,
// Plan.Run, Export.
func (lr *layerRun) analyzeLayers(i int) {
	root := lr.sp.begin("analyze.layers", 0, i)
	var tr *trace.Trace
	var plan *pipeline.Plan
	var prof *core.Profile
	var got []byte
	var err error
	lr.sp.do("trace.Decode", root, i, func(int) { tr, err = trace.Decode(bytes.NewReader(lr.in.stream)) })
	if err == nil {
		lr.sp.do("pipeline.BuildPlan", root, i, func(int) { plan, err = pipeline.BuildPlan(tr, tieSeed, core.Options{}) })
	}
	if err == nil {
		lr.sp.do("pipeline.Plan.Run", root, i, func(int) { prof, err = plan.Run(runtime.GOMAXPROCS(0)) })
	}
	if err == nil {
		lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = prof.Export() })
	}
	lr.sp.end(root)
	lr.res.tally.record("analyze.layers", checkExport(got, err, lr.in.ref))
}

// analyzeWorkers analyzes the decoded trace with a fixed worker count.
func (lr *layerRun) analyzeWorkers(name string, workers int) func(int) {
	return func(i int) {
		root := lr.sp.begin(name, 0, i)
		var prof *core.Profile
		var err error
		lr.sp.do("pipeline.Analyze", root, i, func(int) { prof, err = pipeline.Analyze(lr.in.tr, analyzeOptions(workers, nil)) })
		lr.sp.end(root)
		var got []byte
		if err == nil {
			got, err = prof.Export()
		}
		lr.res.tally.record(name, checkExport(got, err, lr.in.ref))
	}
}

func (lr *layerRun) replay(i int) {
	root := lr.sp.begin("replay", 0, i)
	var prof *core.Profile
	var got []byte
	var err error
	lr.sp.do("core.FromTrace", root, i, func(int) { prof, err = core.FromTrace(lr.in.tr, tieSeed, core.Options{}) })
	if err == nil {
		lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = prof.Export() })
	}
	lr.sp.end(root)
	lr.res.tally.record("replay", checkExport(got, err, lr.in.ref))
}

func (lr *layerRun) merge(i int) {
	var n int
	lr.sp.do("merge", 0, i, func(root int) {
		lr.sp.do("trace.Merge", root, i, func(int) { n = len(trace.Merge(lr.in.tr, tieSeed)) })
	})
	var err error
	if n < lr.in.events {
		err = fmt.Errorf("merge returned %d events, trace has %d", n, lr.in.events)
	}
	lr.res.tally.record("merge", err)
}

func (lr *layerRun) walkRuns(i int) {
	n := 0
	lr.sp.do("walkruns", 0, i, func(root int) {
		lr.sp.do("trace.WalkRuns", root, i, func(int) {
			trace.WalkRuns(lr.in.tr, tieSeed, func(_, lo, hi int) { n += hi - lo })
		})
	})
	var err error
	if n != lr.in.events {
		err = fmt.Errorf("WalkRuns covered %d events, trace has %d", n, lr.in.events)
	}
	lr.res.tally.record("walkruns", err)
}

// incremental feeds the whole trace to a fresh core.Incremental and cuts
// it once at the end.
func (lr *layerRun) incremental(i int) {
	root := lr.sp.begin("incremental", 0, i)
	var inc *core.Incremental
	var got []byte
	var err error
	lr.sp.do("core.NewIncremental", root, i, func(int) { inc = core.NewIncremental(core.Options{}) })
	lr.sp.do("core.Incremental.FeedTrace", root, i, func(int) { err = inc.FeedTrace(lr.in.tr, tieSeed) })
	if err == nil {
		inc.Finish()
		rolling := core.MergePartials()
		rolling.Merge(inc.Cut())
		lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = rolling.Profile.Export() })
	}
	lr.sp.end(root)
	lr.res.tally.record("incremental", checkExport(got, err, lr.in.ref))
}

// windows feeds the merged stream event by event, as the daemon does,
// cutting a window every windowEvents events and merging it into a rolling
// profile.
func (lr *layerRun) windows(i int) {
	root := lr.sp.begin("windows", 0, i)
	inc := core.NewIncremental(core.Options{})
	rolling := core.MergePartials()
	err := inc.ExtendTables(lr.in.tr.Routines, lr.in.tr.Syncs)
	cut := func() {
		var part *core.PartialProfile
		lr.sp.do("core.Incremental.Cut", root, i, func(int) { part = inc.Cut() })
		lr.sp.do("core.PartialProfile.Merge", root, i, func(int) { rolling.Merge(part) })
	}
	for k, e := range lr.in.merged {
		if err != nil {
			break
		}
		err = inc.FeedEvent(e)
		if (k+1)%windowEvents == 0 {
			cut()
		}
	}
	var got []byte
	if err == nil {
		inc.Finish()
		cut()
		lr.sp.do("core.Profile.Export", root, i, func(int) { got, err = rolling.Profile.Export() })
	}
	lr.sp.end(root)
	lr.res.tally.record("windows", checkExport(got, err, lr.in.ref))
}

// streamDecode feeds each guest's captured frames to a fresh
// StreamDecoder, as the daemon's connection handler does.
func (lr *layerRun) streamDecode(i int) {
	root := lr.sp.begin("stream_decode", 0, i)
	var err error
	for g, frames := range lr.guestFrames {
		n := 0
		dec := trace.NewStreamDecoder()
		lr.sp.do("trace.StreamDecoder.Feed", root, i, func(int) {
			for _, f := range frames {
				delta, ferr := dec.Feed(f)
				if ferr != nil {
					err = ferr
					return
				}
				for _, s := range delta.Segments {
					n += len(s.Events)
				}
			}
		})
		if err == nil && (n != len(lr.in.guests[g]) || !dec.Ended()) {
			err = fmt.Errorf("guest %d: decoded %d of %d events (footer %v)", g, n, len(lr.in.guests[g]), dec.Ended())
		}
	}
	lr.sp.end(root)
	lr.res.tally.record("stream_decode", err)
}

// report derives the per-layer metrics from the spans and registries.
func (lr *layerRun) report(lag, generatorLate []float64) {
	sp, ev := lr.sp, float64(lr.in.events)
	ms := func(name, parent string) []float64 { return scale(sp.durations(name, parent), 1e-6) }
	perEvent := func(name, parent string) []float64 { return scale(sp.durations(name, parent), 1/ev) }
	med := func(xs []float64) float64 { return median(xs) }

	native := perEvent("workloads.Run", "native")
	nativeNS := med(native)
	// overNative is a live run's time beyond the native run's, per event.
	overNative := func(name, root string) metric {
		xs := perEvent("workloads.Run", root)
		return single(name, "ns/event", med(xs)-nativeNS, len(xs), "no successful run")
	}

	// Counters of the last inline run: guest and core tallies are
	// deterministic for a given input, so any run's will do.
	var counters map[string]uint64
	var gauges map[string]int64
	if n := len(lr.inlineRegs); n > 0 {
		snap := lr.inlineRegs[n-1].Snapshot()
		counters, gauges = snap.Counters, snap.Gauges
	}
	memEvents, kernelIO, flushes := float64(counters["guest/mem_events"]), float64(counters["guest/kernel_io"]), float64(counters["guest/batch_flushes"])

	var queueWait, threadMax, util, mergeMS []float64
	for _, reg := range lr.pipeRegs {
		s := reg.Snapshot()
		queueWait = append(queueWait, float64(s.Histograms["pipeline/queue_wait_ns"].Sum)/1e6)
		threadMax = append(threadMax, float64(s.Histograms["pipeline/thread_ns"].Max)/1e6)
		util = append(util, float64(s.Gauges["pipeline/utilization_pct"]))
		mergeMS = append(mergeMS, float64(s.Histograms["pipeline/merge_ns"].Sum)/1e6)
	}

	var cutMerge []float64
	cuts, merges := ms("core.Incremental.Cut", "windows"), ms("core.PartialProfile.Merge", "windows")
	for k := range min(len(cuts), len(merges)) {
		cutMerge = append(cutMerge, 1000*(cuts[k]+merges[k]))
	}

	var decodeStream []float64
	for _, root := range sp.spans {
		if root.Name != "stream_decode" {
			continue
		}
		var sum time.Duration
		for _, s := range sp.spans[root.ID:] {
			if s.Parent == root.ID {
				sum += s.Duration()
			}
		}
		decodeStream = append(decodeStream, float64(sum)/ev)
	}

	var frames, windows, checkpoints, perWindow []float64
	for _, d := range lr.daemonCounts {
		frames = append(frames, float64(d["daemon/frames"]))
		windows = append(windows, float64(d["daemon/windows"]))
		checkpoints = append(checkpoints, float64(d["daemon/checkpoints"]))
		perWindow = append(perWindow, float64(d["daemon/events"])/float64(d["daemon/windows"]))
	}

	analyzeMS := ms("analyze", "")
	w1, w2 := perEvent("pipeline.Analyze", "analyze.w1"), perEvent("pipeline.Analyze", "analyze.w2")
	replayNS, mergeNS := perEvent("core.FromTrace", "replay"), perEvent("trace.Merge", "merge")
	incNS := perEvent("core.Incremental.FeedTrace", "incremental")
	analyzeTel := ms("analyze.telemetry", "")
	recordNS := perEvent("record", "")

	lagP99, lateP99 := math.NaN(), math.NaN()
	if highestPercentile(len(lag)) >= 99 {
		lagP99, lateP99 = percentile(lag, 99), percentile(generatorLate, 99)
	}

	lr.res.add(
		fromSamples("guest.native_ns_per_event", "ns/event", native),
		single("guest.kernel_io_share", "ratio", kernelIO/memEvents, 1, "no guest/mem_events counted"),
		single("guest.events_per_batch", "events", memEvents/flushes, 1, "no guest/batch_flushes counted"),
		overNative("core.inline_ns_per_event", "inline"),
		overNative("core.inline_unbatched_ns_per_event", "inline.unbatched"),
		overNative("core.inline_suppress_ns_per_event", "inline.suppress"),
		single("core.replay_ns_per_event", "ns/event", med(replayNS)-med(mergeNS), len(replayNS), "no successful replay"),
		fromSamples("core.export_ms", "ms", ms("core.Profile.Export", "analyze.layers")),
		single("core.incremental_ns_per_event", "ns/event", med(incNS)+med(perEvent("core.NewIncremental", "incremental")), len(incNS), "no successful feed"),
		fromSamples("core.window_cut_merge_us", "us", cutMerge),
		single("core.shadow_peak_mb", "MB", float64(gauges["core/shadow_peak_bytes"])/(1<<20), 1, ""),
		single("core.renumbers", "count", float64(counters["core/renumbers"]), 1, ""),
		single("shadow.chunk_reuse_ratio", "ratio", float64(lr.chunkReused)/float64(lr.chunkReused+lr.chunkFresh), len(lr.inlineRegs), "the inline runs took no shadow chunks"),
		single("trace.record_ns_per_event", "ns/event", med(recordNS)-nativeNS, len(recordNS), "no successful recording"),
		single("trace.bytes_per_event", "B/event", float64(len(lr.in.stream))/ev, 1, ""),
		fromSamples("trace.decode_ns_per_event", "ns/event", perEvent("trace.Decode", "analyze.layers")),
		fromSamples("trace.walkruns_ns_per_event", "ns/event", perEvent("trace.WalkRuns", "walkruns")),
		fromSamples("trace.merge_ns_per_event", "ns/event", mergeNS),
		fromSamples("trace.stream_decode_ns_per_event", "ns/event", decodeStream),
		fromSamples("pipeline.plan_ms", "ms", ms("pipeline.BuildPlan", "analyze.layers")),
		fromSamples("pipeline.run_ns_per_event", "ns/event", perEvent("pipeline.Plan.Run", "analyze.layers")),
		fromSamples("pipeline.analyze_w1_ns_per_event", "ns/event", w1),
		single("pipeline.scaling_w2_over_w1", "ratio", med(w1)/med(w2), len(w2), "no successful two-worker analysis"),
		fromSamples("pipeline.queue_wait_ms", "ms", queueWait),
		fromSamples("pipeline.thread_ms_max", "ms", threadMax),
		fromSamples("pipeline.utilization_pct", "%", util),
		fromSamples("pipeline.merge_ms", "ms", mergeMS),
		fromSamples("daemon.frames", "count", frames),
		fromSamples("daemon.windows", "count", windows),
		fromSamples("daemon.checkpoints", "count", checkpoints),
		fromSamples("daemon.events_per_window", "events", perWindow),
		single("daemon.frontier_lag_p99_ms", "ms", lagP99, len(lag), "fewer than 1000 paced frames"),
		single("daemon.generator_late_p99_ms", "ms", lateP99, len(generatorLate), "fewer than 1000 paced frames"),
		single("telemetry.overhead_pct", "%", 100*(med(analyzeTel)/med(analyzeMS)-1), len(analyzeTel), "no successful analysis"),
	)

	c := newLayerSumCheck(ms("analyze", ""), ms("trace.Decode", "analyze.layers"), ms("pipeline.BuildPlan", "analyze.layers"),
		ms("pipeline.Plan.Run", "analyze.layers"), ms("core.Profile.Export", "analyze.layers"))
	lr.res.LayerSum = c
	lr.res.add(single("analyze.unaccounted_ms", "ms", c.UnaccountedMS, len(analyzeMS), "no successful analysis"))
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
