package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// analyzeThread runs the per-thread half of the paper's Fig. 11 algorithm
// over one guest thread's segments: the thread's latest-access shadow memory
// ts_t plus core's per-thread kernel (shadow stack of partial trms/rms
// values, read and return rules, per-routine aggregation), the same kernel
// the inline profiler runs. Global information — the counter at segment
// entry and the (wts, writer) pair each read observes — comes precomputed
// from the plan, so threads are analyzed fully independently. The worker
// fetches the thread plan's segments as the pre-scan publishes them, and
// consumes a complete plan without waiting.
//
// The plan's counter values are never renumbered, unlike the inline
// profiler's; profiles depend only on timestamp order relations, which
// renumbering preserves, so the results are identical. The differential
// tests in this package check the plan's precomputed stamps against the
// inline profiler.
//
// A panic anywhere in the analysis — e.g. inconsistent plan state from a
// corrupted trace — is converted into an error carrying the thread and the
// segment being processed, so one bad thread cannot crash the whole
// pipeline run. ctx is polled once per segment.
// onSegment, when non-nil, is invoked after each completed segment with its
// event count — the grain of the pipeline's progress reporting.
//
// ck, when non-nil, enables checkpointing: the worker crosses a safepoint
// every safepointStride events, where it drives low-pause shadow snapshots
// and hands serialized states to the checkpoint manager. resume, when
// non-nil, is a validated prior state: the worker restores it and continues
// from the recorded position instead of the beginning.
func analyzeThread(ctx context.Context, tr *trace.Trace, tp *threadPlan, opts core.Options, wide bool, onSegment func(int), ck *workerCkpt, resume *workerState) (*core.Profile, error) {
	if wide {
		return runWorker[uint64](ctx, tr, tp, opts, onSegment, ck, resume)
	}
	return runWorker[uint32](ctx, tr, tp, opts, onSegment, ck, resume)
}

// workerCkpt is one worker's checkpointing context: the shared manager and
// this worker's identity and cadence state.
type workerCkpt struct {
	mgr       *ckptManager
	threadIdx int
	every     int    // events between serialized states
	sinceSnap int    // events since the last snapshot was begun
	gen       uint64 // last seen on-demand snapshot generation
}

// workerPanicHook, when non-nil, is invoked at the start of every
// per-thread analysis; the robustness tests use it to inject worker panics.
var workerPanicHook func(guest.ThreadID)

func runWorker[C core.Cell](ctx context.Context, tr *trace.Trace, tp *threadPlan, opts core.Options, onSegment func(int), ck *workerCkpt, resume *workerState) (prof *core.Profile, err error) {
	var segs []segment // the plan's prefix fetched last
	segIdx := -1
	defer func() {
		if r := recover(); r != nil {
			seg := "before any segment"
			if segIdx >= 0 && segIdx < len(segs) {
				s := segs[segIdx]
				seg = fmt.Sprintf("segment %d (thread trace %d, events [%d:%d), start count %d)",
					segIdx, s.src, s.lo, s.hi, s.startCount)
			}
			prof, err = nil, fmt.Errorf("pipeline: worker for thread %d panicked in %s: %v", tp.id, seg, r)
		}
	}()
	if workerPanicHook != nil {
		workerPanicHook(tp.id)
	}
	w := &worker[C]{
		Kernel:  core.NewKernel[C](tp.id, opts),
		opts:    opts,
		ts:      shadow.NewTable[C](),
		ck:      ck,
		stamped: tp.stamped,
	}
	next, resumeOff := 0, -1
	if resume != nil {
		w.restore(resume)
		if resume.done {
			// The thread finished before the checkpoint: its profile is
			// exactly the fold of its stored aggregates.
			return w.FoldInto(core.NewProfile(), tr), nil
		}
		next, resumeOff = resume.segIdx, resume.off
	}
	for {
		var ferr error
		segs, w.packed, w.reads, ferr = tp.fetch(next)
		if ferr != nil {
			return nil, ferr
		}
		if next >= len(segs) {
			break // closed
		}
		for ; next < len(segs); next++ {
			segIdx = next
			seg := segs[next]
			events := tr.Threads[seg.src].Events[seg.lo:seg.hi]
			off := 0
			if resumeOff >= 0 {
				// Mid-segment resume: the restored counter image is already
				// correct at the recorded offset.
				off, resumeOff = resumeOff, -1
			} else {
				w.count = seg.startCount
			}
			firstOff := off
			for {
				if err := ctx.Err(); err != nil {
					w.cancelCkpt(next, off)
					return nil, err
				}
				if off >= len(events) {
					break
				}
				end := len(events)
				if ck != nil && off+safepointStride < end {
					end = off + safepointStride
				}
				for j := off; j < end; j++ {
					w.step(&events[j])
				}
				done := end - off
				off = end
				w.events += uint64(done)
				if ck != nil {
					ck.sinceSnap += done
					w.safepoint(next, off)
				}
			}
			if onSegment != nil {
				onSegment(len(events) - firstOff)
			}
		}
	}
	if ck != nil {
		w.abortSnap()
		ck.mgr.submit(w.finalState())
	}
	return w.FoldInto(core.NewProfile(), tr), nil
}

// restore rebuilds the worker from a checkpointed state. Everything is
// deep-copied: the state may belong to a Checkpoint that outlives this run
// and is resumed again.
func (w *worker[C]) restore(st *workerState) {
	w.count = st.count
	w.nextRead = st.nextRead
	w.events = st.events
	core.CopyKernel(&w.Kernel, &st.k)
	for _, c := range st.cells {
		w.ts.Set(guest.Addr(c.addr), C(c.val))
	}
}

// safepoint runs every safepointStride events when checkpointing is on: it
// starts a low-pause shadow snapshot when the cadence (or an on-demand
// trigger) asks for one, and completes a pending snapshot once its
// pre-copy is done, capturing the worker's state inside the bounded pause.
func (w *worker[C]) safepoint(segIdx, off int) {
	ck := w.ck
	if w.snapper != nil {
		if w.snapEpoch != w.tsEpoch {
			// The shadow table was replaced (thread exit) under the
			// snapshot; the old table's snapshot no longer describes the
			// worker. Drop it and start over on the live table.
			w.snapper.Abort()
			w.snapper = nil
			w.snapper, w.snapEpoch = w.ts.BeginSnapshot(), w.tsEpoch
			return
		}
		if !w.snapper.Ready() {
			return
		}
		start := time.Now()
		snap := w.snapper.Finish()
		st := w.captureState(segIdx, off, snap)
		pause := time.Since(start)
		w.snapper = nil
		ck.sinceSnap = 0
		ck.mgr.observePause(pause, snap.Stats())
		ck.mgr.submit(st)
		return
	}
	want := ck.sinceSnap >= ck.every
	if g := ck.mgr.snapGen(); g != ck.gen {
		ck.gen = g
		want = true
	}
	if want {
		w.snapper, w.snapEpoch = w.ts.BeginSnapshot(), w.tsEpoch
	}
}

// abortSnap discards a snapshot still in flight (end of thread or
// cancellation overtook it).
func (w *worker[C]) abortSnap() {
	if w.snapper != nil {
		w.snapper.Abort()
		w.snapper = nil
	}
}

// cancelCkpt runs when the context fires mid-thread: it abandons any
// in-flight snapshot, takes a synchronous one (the run is stopping; there
// is no mutator to overlap with), and submits the final partial state so
// the shutdown checkpoint records this thread's exact position.
func (w *worker[C]) cancelCkpt(segIdx, off int) {
	if w.ck == nil {
		return
	}
	w.abortSnap()
	snap := w.ts.TakeSnapshot()
	w.ck.mgr.observePause(snap.Stats().Pause, snap.Stats())
	w.ck.mgr.submit(w.captureState(segIdx, off, snap))
}

// captureState clones the worker's analysis state at position (segIdx,
// off). The clones happen inside the snapshot pause; the shadow cells are
// materialized lazily from the immutable snapshot on the manager
// goroutine, off the worker's path.
func (w *worker[C]) captureState(segIdx, off int, snap *shadow.Snapshot[C]) *workerState {
	st := &workerState{
		threadIdx: w.ck.threadIdx,
		segIdx:    segIdx,
		off:       off,
		events:    w.events,
		count:     w.count,
		nextRead:  w.nextRead,
	}
	core.CopyKernel(&st.k, &w.Kernel)
	st.cellsFn = func() []cellPair { return snapCells(snap) }
	return st
}

// finalState marks the thread fully analyzed: only the aggregates matter.
func (w *worker[C]) finalState() *workerState {
	st := &workerState{threadIdx: w.ck.threadIdx, done: true, events: w.events}
	core.CopyKernel(&st.k, &w.Kernel)
	st.k.Stack = nil // frames still pending at the thread's end never return
	return st
}

// snapCells flattens a shadow snapshot into the checkpoint's sorted
// (address, value) pairs.
func snapCells[C core.Cell](snap *shadow.Snapshot[C]) []cellPair {
	cells := make([]cellPair, 0, 1024)
	snap.Range(func(a guest.Addr, v C) {
		cells = append(cells, cellPair{addr: uint64(a), val: uint64(v)})
	})
	return cells
}

// worker is the state of one per-thread analyzer: the kernel plus the
// thread's shadow memory, its plan-stamp cursor and its counter image.
type worker[C core.Cell] struct {
	core.Kernel[C]
	opts core.Options

	count    uint64 // local image of the global counter
	nextRead int    // cursor into the thread's read stamps

	// The thread plan's stamps fetched last; stamped picks the one in use.
	stamped bool
	packed  []uint64
	reads   []trace.Stamp

	ts *shadow.Table[C] // the thread's latest-access shadow memory

	// Checkpointing state (nil/zero when checkpointing is off): events is
	// the total processed event tally (resumed work included), snapper an
	// in-flight low-pause shadow snapshot, and tsEpoch/snapEpoch detect the
	// table being replaced (thread exit) under a snapshot.
	ck        *workerCkpt
	events    uint64
	snapper   *shadow.Snapshotter[C]
	tsEpoch   int
	snapEpoch int
}

// readAt returns the (wts, writer) pair observed by the thread's i-th read.
func (w *worker[C]) readAt(i int) (uint64, uint32) {
	if w.stamped {
		st := w.reads[i]
		return st.WTS, st.Writer
	}
	g := w.packed[i]
	return g >> 32, uint32(g)
}

func (w *worker[C]) step(e *trace.Event) {
	switch e.Kind {
	case trace.KindCall:
		w.count++
		w.Call(guest.RoutineID(e.Arg), C(w.count), e.Aux)

	case trace.KindReturn:
		n := len(w.Stack)
		if n == 0 {
			return
		}
		if w.opts.CheckLevel != core.CheckOff {
			// The pipeline carries no violation collector, so a violation
			// panics with an "invariant:" prefix; runWorker's panic
			// recovery converts that into a clean per-thread error
			// carrying thread and segment context.
			f := &w.Stack[n-1]
			if bad := f.Malformed(); bad != nil {
				panic(fmt.Sprintf("invariant: activation of routine %d violates %v: trms=%d rms=%d induced=%d+%d",
					f.Rtn, bad, f.TRMS, f.RMS, f.InducedThread, f.InducedExternal))
			}
		}
		w.Return(e.Aux)

	case trace.KindRead, trace.KindKernelRead:
		var wts uint64
		var writer uint32
		if !w.opts.RMSOnly {
			wts, writer = w.readAt(w.nextRead)
			w.nextRead++
		}
		slot := w.ts.Slot(guest.Addr(e.Arg)) // one chunk probe for both the load and the store
		w.Read(*slot, C(wts), writer)
		*slot = C(w.count)

	case trace.KindWrite:
		w.ts.Set(guest.Addr(e.Arg), C(w.count))

	case trace.KindKernelWrite:
		if !w.opts.RMSOnly {
			w.count++
		}

	case trace.KindSwitch:
		// An explicitly recorded switch event (never produced by the
		// Recorder, but legal in hand-built traces) bumps the counter
		// like a synthesized one.
		w.count++

	case trace.KindThreadExit:
		// The inline profiler drops the thread's view on exit; further
		// events under the same id (again only in hand-built traces)
		// start from fresh shadow state. The epoch bump tells a pending
		// checkpoint snapshot its table is gone (see safepoint).
		w.ts = shadow.NewTable[C]()
		w.Stack = w.Stack[:0]
		w.tsEpoch++
	}
	// ThreadStart, Sync, Alloc, Free carry no profiling state.
}
