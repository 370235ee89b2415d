// Adaptive instrumentation: the Options.Sampling tiers. The exact profiler
// pays a shadow-memory probe for every memory access even when the access is
// provably a no-op — the paper's first-access semantics make any repeat read
// of a cell the thread already stamped at the current counter value pure
// overhead (see the early exit in readAt). The suppress tier removes that
// probe with a small per-thread recently-read-cell filter and changes no
// profile byte. The burst tier goes further and trades accuracy for speed:
// once a routine has been observed SamplingHotThreshold times, most of its
// later activations run with shadow instrumentation disabled entirely, with
// periodic full-instrumentation bursts keeping the cost curves populated.
// Sampled-out activations are still counted (Calls and SumCost stay exact;
// observers cannot change what the guest executes) but contribute no metric
// or histogram data, and the profile records them per (routine, thread) in
// Activations.SampledOut so reports can mark sampled routines and bound the
// error instead of trusting the counts.
package core

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// SamplingTier selects the adaptive-instrumentation tier (Options.Sampling).
type SamplingTier uint8

// The three sampling tiers. SamplingOff (the zero value) runs the exact
// profiler. SamplingSuppress adds the per-thread redundancy filter: same-cell
// re-reads within one counter quantum skip the shadow probe. It is provably
// profile-identical to SamplingOff — a filter hit implies the thread's shadow
// timestamp for the cell already equals the current counter value, which is
// exactly the condition under which the exact read path is a complete no-op.
// SamplingBurst additionally samples hot routines: after a routine's first
// SamplingHotThreshold activations (which always run fully instrumented),
// only SamplingBurstLen out of every SamplingInterval activations are
// measured; the rest execute with no shadow updates at all and are recorded
// as sampled-out. Kernel writes stay exact in every tier — external-input
// provenance is global state other threads' measurements depend on.
const (
	SamplingOff SamplingTier = iota
	SamplingSuppress
	SamplingBurst
)

// String returns the tier's flag spelling: off, suppress or burst.
func (s SamplingTier) String() string {
	switch s {
	case SamplingOff:
		return "off"
	case SamplingSuppress:
		return "suppress"
	case SamplingBurst:
		return "burst"
	}
	return fmt.Sprintf("SamplingTier(%d)", uint8(s))
}

// ParseSamplingTier parses the flag spellings accepted by String.
func ParseSamplingTier(s string) (SamplingTier, error) {
	switch s {
	case "off", "":
		return SamplingOff, nil
	case "suppress":
		return SamplingSuppress, nil
	case "burst":
		return SamplingBurst, nil
	}
	return SamplingOff, fmt.Errorf("unknown sampling tier %q (want off, suppress or burst)", s)
}

// Burst-sampling schedule. A routine's first SamplingHotThreshold activations
// are always fully measured: rare routines stay exact, and every routine
// seeds its cost curves with exact points before sampling starts. Past the
// threshold the schedule cycles: the first SamplingBurstLen activations of
// each SamplingInterval-long window are measured (a burst), the remaining
// ones are sampled out. The threshold sits far below the activation counts
// of the hot loops (mysqld's buf_pool_fetch runs ~1.7k activations at the
// default size; the OMP2012 kernels' inner routines run hundreds) but above
// the whole-run call counts of the small PARSEC models (dedup peaks at one
// call per routine), so at default workload sizes only genuinely hot
// routines are ever sampled.
const (
	// SamplingHotThreshold is the per-routine activation count after which
	// burst sampling engages.
	SamplingHotThreshold = 12
	// SamplingInterval is the length of one sampling window, in activations
	// of the hot routine.
	SamplingInterval = 32
	// SamplingBurstLen is how many activations at the start of each window
	// are fully measured.
	SamplingBurstLen = 2
)

// readFilterSize is the number of slots in the per-thread recently-read-cell
// filter: a direct-mapped array small enough to live in cache next to the
// shadow cursor. Must be a power of two.
const readFilterSize = 16

// readFilterMask indexes the filter by the cell address's low bits.
const readFilterMask = readFilterSize - 1

// samplingStats tallies the sampling tier's work in plain fields on the hot
// path (no atomics, no registry traffic); publishSampling pushes them to the
// telemetry registry once, at Finish.
type samplingStats struct {
	suppressed    uint64 // reads answered by the redundancy filter
	skippedEvents uint64 // memory events dropped inside sampled-out subtrees
	burstWindows  uint64 // full-instrumentation bursts started on hot routines
	sampledOut    uint64 // activations recorded without measurement
}

// burstCall advances routine r's activation count and decides whether the
// activation just pushed starts a sampled-out subtree. Counting is exact even
// inside a subtree that is already sampled out — Calls must match the exact
// profiler — but a new skip window only starts at top level: nested
// activations inherit the enclosing skip.
func (p *Profiler) burstCall(tv *threadView, r guest.RoutineID) {
	ri := int(r)
	for len(p.rtnCalls) <= ri {
		p.rtnCalls = append(p.rtnCalls, 0)
	}
	c := p.rtnCalls[ri]
	p.rtnCalls[ri] = c + 1
	if tv.skipRoot != 0 || c < SamplingHotThreshold {
		return
	}
	phase := (c - SamplingHotThreshold) % SamplingInterval
	if phase == 0 {
		p.sstats.burstWindows++
	}
	if phase >= SamplingBurstLen {
		// Sample this activation out: the whole subtree runs without
		// shadow updates until the matching return pops this frame.
		tv.skipRoot = int32(len(tv.Stack))
	}
}

// memBatchFiltered is MemBatch's loop for the suppress and burst tiers when
// the current subtree is being measured. It is the exact trms loop of
// MemBatch with the redundancy filter spliced in: each filter slot holds
// addr+1 of a cell this thread read since the counter and stack depth last
// changed (0 = empty). A hit proves the thread's shadow timestamp for the
// cell equals the current counter value — the exact path's repeat-access
// no-op — so the shadow probe is skipped outright. The tags are checked once
// per batch: calls, returns, thread switches and kernel writes all either
// bump the counter or change the stack depth, so stale entries can never
// survive into a quantum where they would lie. Plain writes clear their slot
// (one store); kernel writes move the counter and flush the whole filter.
func (p *Profiler) memBatchFiltered(t guest.ThreadID, tv *threadView, events []guest.MemEvent) {
	cnt := p.count
	tsc := &tv.tsc
	gc := &p.gcur
	measured := len(tv.Stack) > 0

	if depth := int32(len(tv.Stack)); tv.filtCnt != cnt || tv.filtDepth != depth {
		tv.filt = [readFilterSize]guest.Addr{}
		tv.filtCnt = cnt
		tv.filtDepth = depth
	}

	prov := uint64(cnt)<<32 | uint64(uint32(t)+1)
	var suppressed uint64

	for _, e := range events {
		a := e.Addr()
		if e.IsWrite() {
			if e.IsKernel() {
				// Kernel write: exactly as in MemBatch, plus a filter
				// flush — the counter moved, so every entry is stale.
				if cnt >= p.threshold {
					p.renumber()
					cnt = p.count
				}
				cnt++
				p.count = cnt
				gc.Chunk(a)[a&(shadow.ChunkSize-1)] = uint64(cnt)<<32 | uint64(kernelWriter)
				prov = uint64(cnt)<<32 | uint64(uint32(t)+1)
				tv.filt = [readFilterSize]guest.Addr{}
				tv.filtCnt = cnt
				continue
			}
			tsc.Chunk(a)[a&(shadow.ChunkSize-1)] = cnt
			gc.Chunk(a)[a&(shadow.ChunkSize-1)] = prov
			tv.filt[a&readFilterMask] = 0
			continue
		}
		slot := &tv.filt[a&readFilterMask]
		if *slot == a+1 {
			suppressed++
			continue
		}
		ch := tsc.Chunk(a)
		old := ch[a&(shadow.ChunkSize-1)]
		if old == cnt {
			*slot = a + 1
			continue // repeat access: no-op, see readAt
		}
		if measured {
			g := gc.Peek(a)
			tv.Read(old, uint32(g>>32), uint32(g))
		}
		ch[a&(shadow.ChunkSize-1)] = cnt
		*slot = a + 1
	}
	p.sstats.suppressed += suppressed
}

// memBatchSkip consumes a batch inside a sampled-out subtree: every thread
// read and write is dropped — no shadow probe, no stamp — while kernel
// writes stay exact (counter bump plus global stamp with kernel provenance),
// because external-input provenance is global state that other threads'
// measured reads consult. Dropped thread writes are the burst tier's
// documented drift source: a later measured reader on another thread may
// miss a thread-induced first-access the exact profiler would count.
//
// A branch-free OR over the batch decides whether any kernel-mediated event
// is present at all; compute-bound workloads (the Table-1 suite) have none,
// so their skipped batches cost one pass of pure loads and a counter add.
func (p *Profiler) memBatchSkip(events []guest.MemEvent) {
	var or guest.MemEvent
	for _, e := range events {
		or |= e
	}
	if !or.IsKernel() {
		p.sstats.skippedEvents += uint64(len(events))
		return
	}
	var skipped uint64
	for _, e := range events {
		if e.IsWrite() && e.IsKernel() {
			a := e.Addr()
			ts := p.bump()
			p.gcur.Chunk(a)[a&(shadow.ChunkSize-1)] = uint64(ts)<<32 | uint64(kernelWriter)
			continue
		}
		skipped++
	}
	p.sstats.skippedEvents += skipped
}

// publishSampling pushes the sampling tallies into the telemetry registry.
// Nil-receiver safe end to end: a nil registry is a no-op (Options.Sampling
// must work without telemetry attached), and the Counter/Gauge handles are
// themselves nil-safe.
func (p *Profiler) publishSampling(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core/sampling_suppressed_reads").Add(p.sstats.suppressed)
	reg.Counter("core/sampling_skipped_events").Add(p.sstats.skippedEvents)
	reg.Counter("core/sampling_burst_windows").Add(p.sstats.burstWindows)
	reg.Counter("core/sampling_sampled_out").Add(p.sstats.sampledOut)
	exact, sampled := p.routineTiers()
	reg.Gauge("core/sampling_routines_exact").SetMax(exact)
	reg.Gauge("core/sampling_routines_sampled").SetMax(sampled)
}

// routineTiers counts, across live and retired thread views, how many
// distinct routines stayed fully measured and how many had at least one
// activation sampled out — the per-tier routine counts of the telemetry
// snapshot and the honesty marker behind Sampled().
func (p *Profiler) routineTiers() (exact, sampled int64) {
	var seen, samp []bool
	mark := func(tv *threadView) {
		for rtn, a := range tv.Acts {
			if a == nil {
				continue
			}
			for len(seen) <= rtn {
				seen = append(seen, false)
				samp = append(samp, false)
			}
			seen[rtn] = true
			if a.SampledOut != 0 {
				samp[rtn] = true
			}
		}
	}
	for _, tv := range p.retired {
		mark(tv)
	}
	for _, tv := range p.threads {
		mark(tv)
	}
	for i, s := range seen {
		if !s {
			continue
		}
		if samp[i] {
			sampled++
		} else {
			exact++
		}
	}
	return exact, sampled
}
