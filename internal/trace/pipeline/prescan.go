package pipeline

// The pre-scan for traces without recorded stamp annotations: one
// sequential pass over the merged event order that maintains the global
// counter and write shadow and publishes segments, with the read stamps
// covering them, to the per-thread plans as it goes. Long single-thread
// stretches are chunk-split so a worker can trail the scan closely even
// when the schedule rarely switches threads.

import (
	"context"
	"fmt"

	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// streamChunkEvents bounds how many events the pre-scan buffers into one
// segment before publishing it. Splits within a run are exact (the counter
// at the split point is recorded as the next segment's entry count), so
// chunking changes scheduling granularity, never results.
const streamChunkEvents = 4096

// prescan fills the unscanned plan p from its trace. A worker may consume
// each thread plan while it grows, from the moment prescan adds it to
// p.threads. ctx is polled once per merged scheduler run.
//
// On return — success, cancellation, or panic — every thread plan is
// closed carrying the failure, if any, and the plan is marked scanned.
func (p *Plan) prescan(ctx context.Context, tieSeed int64, reg *telemetry.Registry) {
	span := reg.StartSpan(ctx, "pipeline/prescan")
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: pre-scan panicked: %v", r)
		}
		span.End()
		for _, tp := range p.threads {
			tp.close(err)
		}
		p.mu.Lock()
		p.scanned, p.scanErr = true, err
		p.cond.Broadcast()
		p.mu.Unlock()
	}()

	tr := p.tr
	byID := make(map[guest.ThreadID]*threadPlan)
	threadFor := func(id guest.ThreadID) *threadPlan {
		tp := byID[id]
		if tp == nil {
			tp = newThreadPlan(id, p.wide)
			byID[id] = tp
			p.mu.Lock()
			p.threads = append(p.threads, tp)
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		return tp
	}

	var (
		count      uint64
		cur        *threadPlan
		curSeg     segment
		haveSeg    bool
		pendPacked []uint64
		pendReads  []trace.Stamp
	)
	// publish hands the open segment and its buffered stamps to cur.
	// Zero-length segments (possible right after a chunk split at a run's
	// last event) are dropped — they carry no stamps.
	publish := func() {
		if !haveSeg {
			return
		}
		haveSeg = false
		if curSeg.hi <= curSeg.lo {
			return
		}
		cur.publish(curSeg, pendPacked, pendReads)
		pendPacked = pendPacked[:0]
		pendReads = pendReads[:0]
	}
	// boundary starts a new segment at event k of thread trace ti. The merge
	// synthesizes a switchThread event — which bumps the counter — exactly
	// when the thread id changes; a run can also end without a switch if two
	// thread traces share an id. Called only at segment boundaries, so the
	// per-event cost of the scan loops below is one comparison.
	boundary := func(ti, k int, e *trace.Event) {
		if haveSeg && curSeg.src == ti {
			curSeg.hi = k
		}
		bump := haveSeg && cur.id != e.Thread
		publish()
		if bump {
			count++
		}
		cur = threadFor(e.Thread)
		curSeg = segment{src: ti, lo: k, hi: k, startCount: count}
		haveSeg = true
	}
	// maybeSplit publishes after event k once the open segment holds
	// streamChunkEvents, recording the exact counter for the continuation.
	maybeSplit := func(ti, k int) {
		if k+1-curSeg.lo >= streamChunkEvents {
			curSeg.hi = k + 1
			publish()
			curSeg = segment{src: ti, lo: k + 1, hi: k + 1, startCount: count}
			haveSeg = true
		}
	}

	// One flat inner loop per mode, fed whole same-thread runs by WalkRuns:
	// no global write shadow under RMSOnly (and kernel writes do not bump),
	// packed single-word stamps in narrow mode, full pairs in wide mode.
	// Once ctxErr is set the remaining runs are skipped cheaply.
	var ctxErr error
	checkCtx := func() bool {
		if ctxErr == nil {
			ctxErr = ctx.Err()
		}
		return ctxErr != nil
	}
	switch {
	case p.opts.RMSOnly:
		trace.WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
			if checkCtx() {
				return
			}
			tt := &tr.Threads[ti]
			for k := lo; k < hi; k++ {
				e := &tt.Events[k]
				if !haveSeg || cur.id != e.Thread || curSeg.src != ti {
					boundary(ti, k, e)
				}
				if e.Kind == trace.KindCall || e.Kind == trace.KindSwitch {
					count++
				}
				maybeSplit(ti, k)
			}
			if haveSeg && curSeg.src == ti {
				curSeg.hi = hi
			}
		})
	case p.wide:
		global := shadow.NewTable[trace.Stamp]()
		trace.WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
			if checkCtx() {
				return
			}
			tt := &tr.Threads[ti]
			for k := lo; k < hi; k++ {
				e := &tt.Events[k]
				if !haveSeg || cur.id != e.Thread || curSeg.src != ti {
					boundary(ti, k, e)
				}
				switch e.Kind {
				case trace.KindCall, trace.KindSwitch:
					count++
				case trace.KindKernelWrite:
					count++
					global.Set(guest.Addr(e.Arg), trace.Stamp{WTS: count, Writer: kernelWriter})
				case trace.KindWrite:
					global.Set(guest.Addr(e.Arg), trace.Stamp{WTS: count, Writer: uint32(e.Thread) + 1})
				case trace.KindRead, trace.KindKernelRead:
					pendReads = append(pendReads, global.Peek(guest.Addr(e.Arg)))
				}
				maybeSplit(ti, k)
			}
			if haveSeg && curSeg.src == ti {
				curSeg.hi = hi
			}
		})
	default:
		global := shadow.NewTable[uint64]()
		trace.WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
			if checkCtx() {
				return
			}
			tt := &tr.Threads[ti]
			for k := lo; k < hi; k++ {
				e := &tt.Events[k]
				if !haveSeg || cur.id != e.Thread || curSeg.src != ti {
					boundary(ti, k, e)
				}
				switch e.Kind {
				case trace.KindCall, trace.KindSwitch:
					count++
				case trace.KindKernelWrite:
					count++
					global.Set(guest.Addr(e.Arg), count<<32|uint64(kernelWriter))
				case trace.KindWrite:
					global.Set(guest.Addr(e.Arg), count<<32|uint64(uint32(e.Thread)+1))
				case trace.KindRead, trace.KindKernelRead:
					pendPacked = append(pendPacked, global.Peek(guest.Addr(e.Arg)))
				}
				maybeSplit(ti, k)
			}
			if haveSeg && curSeg.src == ti {
				curSeg.hi = hi
			}
		})
	}
	if ctxErr != nil {
		err = fmt.Errorf("pipeline: pre-scan canceled: %w", ctxErr)
		return
	}
	publish()
}
