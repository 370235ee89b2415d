package pipeline

// Wide-plan tests: a plan switches to 64-bit timestamps (runWorker[uint64],
// the pre-scan's full-pair stamp branch) only when its trace could push the
// counter past 32 bits, which no test-sized trace does. These in-package
// tests force the width on small traces and hold the wide route to the same
// byte-identity as the narrow one.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// widePlan returns a wide plan of tr: assembled from the annotations when
// tr has them, otherwise filled by the pre-scan, synchronously or (when
// overlapped) concurrently with the caller's run.
func widePlan(ctx context.Context, tr *trace.Trace, opts core.Options, overlapped bool) *Plan {
	if p := planFromAnnotations(tr, opts); p != nil {
		p.wide = true
		return p
	}
	p := newPlan(tr, opts)
	p.wide = true
	if overlapped {
		go p.prescan(ctx, 1, nil)
	} else {
		p.prescan(ctx, 1, nil)
	}
	return p
}

// TestWidePlanByteIdentical: the 64-bit instantiation on the pre-scan route
// (run to completion and overlapped) and on the annotated route produces
// the profile core.FromTrace produces, under the default options and the
// metric ablations whose stamps and counter images differ.
func TestWidePlanByteIdentical(t *testing.T) {
	variants := []core.Options{
		{},
		{RMSOnly: true},
		{DisableExternal: true},
		{DisableThreadInduced: true, CheckLevel: core.CheckCheap},
	}
	for _, w := range []struct {
		name   string
		params workloads.Params
	}{
		{"mysqld", workloads.Params{Size: 16, Threads: 4, Seed: 1}},
		{"dedup", workloads.Params{Size: 20, Threads: 3, Seed: 1}},
	} {
		tr, _ := streamedTrace(t, w.name, w.params, 0)
		stripped := *tr
		stripped.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
		stripped.StripAnnotations()
		traces := map[string]*trace.Trace{"prescan": &stripped, "annotated": tr}
		for route, tr := range traces {
			for _, opts := range variants {
				ref, err := core.FromTrace(tr, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Export()
				if err != nil {
					t.Fatal(err)
				}
				for _, overlapped := range []bool{false, true} {
					p := widePlan(context.Background(), tr, opts, overlapped)
					if p.annotated != (route == "annotated") {
						t.Fatalf("%s/%s: plan annotated=%v", w.name, route, p.annotated)
					}
					prof, err := p.Run(2)
					if err != nil {
						t.Fatalf("%s/%s %+v: %v", w.name, route, opts, err)
					}
					got, err := prof.Export()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s/%s %+v overlapped=%v: wide profile differs from core.FromTrace",
							w.name, route, opts, overlapped)
					}
				}
			}
		}
	}
}

// TestWidePlanCheckpointResume: a wide run canceled mid-way leaves a
// checkpoint fingerprinted wide, whose 64-bit worker states resume to the
// uninterrupted profile; the same checkpoint offered to a narrow plan is a
// fingerprint mismatch, not a misread.
func TestWidePlanCheckpointResume(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 16, Threads: 4, Seed: 1}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	ref, err := core.FromTrace(tr, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Export()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.ckpt")
	run := func(p *Plan, frac float64, resume *Checkpoint, reg *telemetry.Registry) ([]byte, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p.Checkpoint = &CheckpointOptions{Path: path, EveryEvents: 300}
		p.Resume = resume
		p.Telemetry = reg
		if frac < 1 {
			p.Progress = cancelAfter(cancel, frac)
		}
		prof, err := p.RunContext(ctx, 2)
		if err != nil {
			return nil, err
		}
		return prof.Export()
	}

	if _, err := run(widePlan(context.Background(), tr, core.Options{}, false), 0.4, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wide run returned %v, want context.Canceled", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.header.wide || !ck.Canceled() || ck.Events() == 0 {
		t.Fatalf("wide checkpoint: wide=%v canceled=%v events=%d", ck.header.wide, ck.Canceled(), ck.Events())
	}

	reg := telemetry.NewRegistry()
	got, err := run(widePlan(context.Background(), tr, core.Options{}, false), 2, ck, reg)
	if err != nil {
		t.Fatalf("resumed wide run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed wide profile differs from core.FromTrace")
	}
	if reg.Counter("resume/events_skipped").Load() == 0 {
		t.Fatal("wide resume skipped no checkpointed work")
	}

	narrow, err := BuildPlan(tr, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg = telemetry.NewRegistry()
	got, err = run(narrow, 2, ck, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("narrow run offered a wide checkpoint differs from core.FromTrace")
	}
	if reg.Counter("resume/checkpoint_mismatched").Load() != 1 {
		t.Fatal("wide checkpoint was not rejected by a narrow plan")
	}
}

// TestNarrowPlanDropsWideState: a narrow worker holds 32-bit timestamps, so
// a loaded state whose counter image or frame timestamps need more bits
// (only a damaged or foreign checkpoint can carry one) is dropped rather
// than truncated.
func TestNarrowPlanDropsWideState(t *testing.T) {
	p, err := BuildPlan(robustTrace(2, 4), 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.wide {
		t.Fatal("small plan is wide")
	}
	st := func() *workerState {
		return &workerState{k: core.Kernel[uint64]{ID: p.threads[0].id}}
	}
	if !validState(p, 0, st()) {
		t.Fatal("empty state at the thread's start rejected")
	}
	big := st()
	big.count = 1 << 32
	if validState(p, 0, big) {
		t.Error("narrow plan accepted a 33-bit counter image")
	}
	big = st()
	big.k.Stack = []core.Frame[uint64]{{Rtn: 1, TS: 1 << 32}}
	if validState(p, 0, big) {
		t.Error("narrow plan accepted a 33-bit frame timestamp")
	}
}
