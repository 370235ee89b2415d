package pipeline

// Differential tests for the two analysis routes: the annotated
// O(#segments) plan and the pre-scan overlapped with the workers. Every
// route, at every worker count, must export byte-for-byte the profile the
// inline profiler computes.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// streamedTrace records a workload through the streaming recorder (the
// annotating path) and decodes it.
func streamedTrace(t *testing.T, wl string, params workloads.Params, segmentEvents int) (*trace.Trace, *core.Profile) {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	if segmentEvents > 0 {
		rec.SetSegmentEvents(segmentEvents)
	}
	inline := core.New(core.Options{})
	if _, err := workloads.RunByName(wl, params, rec, inline); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr, inline.Profile()
}

func export(t *testing.T, p *core.Profile, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// analyzeExport analyzes tr and returns the profile's canonical export.
func analyzeExport(t *testing.T, tr *trace.Trace, opts Options) []byte {
	t.Helper()
	p, err := Analyze(tr, opts)
	return export(t, p, err)
}

// TestAnnotatedRouteMatchesInline sweeps workloads and worker counts over
// the annotated fast path and the stripped twin's overlapped pre-scan; both
// must reproduce the inline profiler byte for byte.
func TestAnnotatedRouteMatchesInline(t *testing.T) {
	cases := []struct {
		wl     string
		params workloads.Params
	}{
		{"mysqld", workloads.Params{Size: 16, Threads: 4}},
		{"producer-consumer", workloads.Params{Size: 24, Threads: 3}},
		{"external-read", workloads.Params{Size: 16}},
		{"fig1b", workloads.Params{}},
	}
	for _, tc := range cases {
		tr, inline := streamedTrace(t, tc.wl, tc.params, 0)
		if !tr.Annotated {
			t.Fatalf("%s: streamed trace not annotated", tc.wl)
		}
		base := export(t, inline, nil)

		stripped := *tr
		stripped.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
		stripped.StripAnnotations()

		for _, workers := range []int{1, 2, 4, 0} {
			got := analyzeExport(t, tr, Options{Workers: workers})
			if !bytes.Equal(got, base) {
				t.Fatalf("%s: annotated route, workers=%d: diverges from inline", tc.wl, workers)
			}
			got = analyzeExport(t, &stripped, Options{Workers: workers})
			if !bytes.Equal(got, base) {
				t.Fatalf("%s: overlapped pre-scan, workers=%d: diverges from inline", tc.wl, workers)
			}
		}
	}
}

// TestAnnotatedPlanShape: the fast-path plan must be marked annotated,
// cover every event, and be reusable across Run calls like a pre-scan plan.
func TestAnnotatedPlanShape(t *testing.T) {
	tr, inline := streamedTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4}, 0)
	plan, err := BuildPlan(tr, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Annotated() {
		t.Fatal("plan over annotated trace not marked annotated")
	}
	if got, want := plan.NumEvents(), uint64(tr.NumEvents()); got != want {
		t.Fatalf("plan covers %d of %d events", got, want)
	}
	if plan.NumThreads() < 2 || plan.NumSegments() < plan.NumThreads() {
		t.Fatalf("degenerate plan: %d threads, %d segments", plan.NumThreads(), plan.NumSegments())
	}
	base := export(t, inline, nil)
	for _, workers := range []int{1, 4, 2} {
		prof, err := plan.Run(workers)
		if got := export(t, prof, err); !bytes.Equal(got, base) {
			t.Fatalf("reused annotated plan, workers=%d: diverges from inline", workers)
		}
	}
}

// TestFlushSplitAnnotations forces a tiny recorder segment capacity so
// annotation runs split at flush boundaries far more often than at thread
// switches; the split entry counts must still be exact on both full and
// rms-only schemes.
func TestFlushSplitAnnotations(t *testing.T) {
	for _, segEvents := range []int{1, 3, 64} {
		tr, inline := streamedTrace(t, "producer-consumer", workloads.Params{Size: 24, Threads: 3}, segEvents)
		if !tr.Annotated {
			t.Fatalf("segment=%d: streamed trace not annotated", segEvents)
		}
		base := export(t, inline, nil)
		if got := analyzeExport(t, tr, Options{Workers: 2}); !bytes.Equal(got, base) {
			t.Fatalf("segment=%d: annotated route diverges from inline", segEvents)
		}

		rmsProf, rmsErr := core.FromTrace(tr, 0, core.Options{RMSOnly: true})
		rmsBase := export(t, rmsProf, rmsErr)
		rmsPipe, rmsPipeErr := Analyze(tr, Options{Workers: 2, Profile: core.Options{RMSOnly: true}})
		got := export(t, rmsPipe, rmsPipeErr)
		if !bytes.Equal(got, rmsBase) {
			t.Fatalf("segment=%d: rms-only annotated route diverges from inline", segEvents)
		}
	}
}

// TestStreamingChunkSplit runs the fallback on a single-threaded trace long
// enough to force mid-run chunk publishes; with one thread there is no
// switch boundary at all, so correctness rests entirely on split exactness.
func TestStreamingChunkSplit(t *testing.T) {
	tr, inline := streamedTrace(t, "linear-scan", workloads.Params{Size: 128}, 0)
	if tr.NumEvents() <= streamChunkEvents {
		t.Fatalf("workload too small to chunk: %d events", tr.NumEvents())
	}
	stripped := *tr
	stripped.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
	stripped.StripAnnotations()
	base := export(t, inline, nil)
	for _, workers := range []int{1, 2} {
		if got := analyzeExport(t, &stripped, Options{Workers: workers}); !bytes.Equal(got, base) {
			t.Fatalf("chunked overlapped pre-scan, workers=%d: diverges from inline", workers)
		}
	}
}
