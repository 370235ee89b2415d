package core

// The per-thread kernel of the multithreaded paper's Fig. 11 algorithm: the
// shadow stack of partial trms/rms values, the first-access and induced
// first-access read rule, the return rule, and the per-routine aggregates.
// Everything global — the counter, the write timestamps and their
// provenance — is supplied from outside, which lets one kernel serve every
// route: the inline Profiler passes its renumbered 32-bit stamps, the
// parallel pipeline's workers pass the plan's precomputed, never-renumbered
// counter values, at 32 or 64 bits. Profiles depend only on the order
// relations among those values, which renumbering preserves, so every
// route computes the same profile.

import (
	"repro/internal/guest"
)

// Cell is the width of a timestamp: uint32 for the inline profiler and for
// pipeline plans whose counter provably fits 32 bits, uint64 otherwise.
type Cell interface {
	~uint32 | ~uint64
}

// Frame is one shadow-stack entry for a pending routine activation.
type Frame[C Cell] struct {
	Rtn     guest.RoutineID
	TS      C      // activation timestamp (global counter at call)
	BBEnter uint64 // thread's basic-block count at call

	// TRMS and RMS are the *partial* metrics of the paper's Invariant 2:
	// an activation's metric is the sum of partials from its frame to the
	// stack top. They can be negative transiently on inner frames.
	TRMS int64
	RMS  int64

	// InducedThread and InducedExternal count induced first-accesses
	// performed by this activation's subtree, split by provenance. They
	// propagate to the parent on return (a routine's induced input
	// includes its descendants').
	InducedThread   uint64
	InducedExternal uint64

	// Partial marks an activation whose subtree contains sampled-out work
	// (burst sampling): its metrics undercount the skipped descendants'
	// contributions. Propagates to the parent on return, like the metrics
	// it qualifies.
	Partial bool
}

// Malformed returns the names of the well-formedness invariants a completed
// activation's metrics violate, or nil. At return the frame is the top of
// the stack, so by Invariant 2 its partials are the activation's totals:
// Definition 1 makes rms a set cardinality (never negative), trms extends
// rms by induced first-accesses only (trms >= rms), and every unit of trms
// beyond rms must be a recorded induced first-access of the subtree.
func (f *Frame[C]) Malformed() []string {
	var bad []string
	if f.RMS < 0 {
		bad = append(bad, "activation/rms-nonneg")
	}
	if f.TRMS < f.RMS {
		bad = append(bad, "activation/trms-ge-rms")
	}
	if f.TRMS > f.RMS+int64(f.InducedThread)+int64(f.InducedExternal) {
		bad = append(bad, "activation/trms-bound")
	}
	return bad
}

// Kernel is one guest thread's profiling state: its shadow stack, its
// per-routine aggregates and its induced first-access tallies. The caller
// owns the thread's latest-access shadow memory ts_t and the global
// counter; it resolves each read's old ts_t value and the cell's write
// timestamp and provenance, calls Read, and then stamps the cell.
type Kernel[C Cell] struct {
	ID    guest.ThreadID
	Stack []Frame[C]

	// Acts holds the thread's aggregates, indexed by guest.RoutineID; an
	// entry is nil until the routine's first activation returns.
	Acts []*Activations

	// InducedThread and InducedExternal count the thread's induced
	// first-accesses, each event once (Profile.InducedThread/External).
	InducedThread   uint64
	InducedExternal uint64

	// noThread and noExternal mirror Options.DisableThreadInduced and
	// Options.DisableExternal.
	noThread, noExternal bool
}

// NewKernel returns the empty kernel of thread id under opts.
func NewKernel[C Cell](id guest.ThreadID, opts Options) Kernel[C] {
	return Kernel[C]{ID: id, noThread: opts.DisableThreadInduced, noExternal: opts.DisableExternal}
}

// Call pushes the activation of routine rtn at timestamp ts and basic-block
// count bb. Timestamps must increase up the stack.
func (k *Kernel[C]) Call(rtn guest.RoutineID, ts C, bb uint64) {
	k.Stack = append(k.Stack, Frame[C]{Rtn: rtn, TS: ts, BBEnter: bb})
}

// Read applies the read rule of Fig. 11, with the parallel rms computation
// and the induced-input provenance split, to one read of a cell whose
// thread timestamp was old (0: never accessed) and whose latest write
// carries timestamp wts by writer (0 none, thread id + 1, or the kernel's
// marker; wts is 0 where no write shadow is kept). The caller stamps the
// cell with the current counter afterwards. A read with no pending
// activation changes nothing here.
func (k *Kernel[C]) Read(old, wts C, writer uint32) {
	n := len(k.Stack)
	if n == 0 {
		return
	}
	top := &k.Stack[n-1]
	// A read of a cell written, after the thread's latest access, by
	// another thread or the kernel is an induced first-access when that
	// provenance counts as input: new input for the topmost activation
	// and, by Invariant 2, for every ancestor, none of which accessed the
	// cell since the foreign write.
	induced := false
	if old < wts {
		if writer == kernelWriter {
			if induced = !k.noExternal; induced {
				top.InducedExternal++
				k.InducedExternal++
			}
		} else if induced = !k.noThread; induced {
			top.InducedThread++
			k.InducedThread++
		}
	}
	if induced {
		top.TRMS++
	}
	// The rest is the PLDI 2012 first-access rule, which rms follows
	// always (it ignores foreign writes by definition) and trms unless the
	// read was already counted as induced.
	if old == 0 {
		// First access ever by this thread.
		top.RMS++
		if !induced {
			top.TRMS++
		}
	} else if old < top.TS {
		// First access by the topmost activation to a cell last accessed
		// under some ancestor, whose partials shrink so its own totals are
		// unchanged: the O(log depth) step of the paper's analysis.
		top.RMS++
		if !induced {
			top.TRMS++
		}
		if j := findFrame(k.Stack, old); j >= 0 {
			k.Stack[j].RMS--
			if !induced {
				k.Stack[j].TRMS--
			}
		}
	}
}

// Return completes the topmost activation at basic-block count bb: its
// trms, rms, induced input and cumulative cost are recorded, and it is
// folded into its parent.
func (k *Kernel[C]) Return(bb uint64) {
	f := &k.Stack[len(k.Stack)-1]
	recordFrame(k.activations(f.Rtn), f, bb-f.BBEnter)
	k.pop()
}

// pop folds the topmost frame's partial metrics, induced counts and partial
// mark into its parent, preserving Invariant 2, and pops it.
func (k *Kernel[C]) pop() {
	n := len(k.Stack)
	f := &k.Stack[n-1]
	if n > 1 {
		parent := &k.Stack[n-2]
		parent.TRMS += f.TRMS
		parent.RMS += f.RMS
		parent.InducedThread += f.InducedThread
		parent.InducedExternal += f.InducedExternal
		if f.Partial {
			parent.Partial = true
		}
	}
	k.Stack = k.Stack[:n-1]
}

// activations returns routine rtn's aggregate, creating it on first use.
func (k *Kernel[C]) activations(rtn guest.RoutineID) *Activations {
	for int(rtn) >= len(k.Acts) {
		k.Acts = append(k.Acts, nil)
	}
	a := k.Acts[rtn]
	if a == nil {
		a = newActivations(k.ID)
		k.Acts[rtn] = a
	}
	return a
}

// recordFrame folds one completed activation into its routine's aggregate.
func recordFrame[C Cell](a *Activations, f *Frame[C], cost uint64) {
	a.Record(clampMetric(f.TRMS), clampMetric(f.RMS), f.InducedThread, f.InducedExternal, cost)
	if f.Partial {
		a.PartialCalls++
	}
}

// RoutineNamer resolves routine ids to names: a guest.Env, or a
// *trace.Trace's name table.
type RoutineNamer interface {
	RoutineName(guest.RoutineID) string
}

// FoldInto adds the thread's aggregates and induced tallies to out,
// resolving routine ids in ascending order (two ids with one name merge
// exactly as the inline profiler merges them), and returns out. Aggregates
// are cloned, so the kernel may keep recording and out owns what it
// receives.
func (k *Kernel[C]) FoldInto(out *Profile, names RoutineNamer) *Profile {
	out.InducedThread += k.InducedThread
	out.InducedExternal += k.InducedExternal
	for rtn, a := range k.Acts {
		if a != nil {
			out.AddActivations(names.RoutineName(guest.RoutineID(rtn)), a.clone())
		}
	}
	return out
}

// CopyKernel makes dst a deep copy of src's thread id, stack, aggregates
// and tallies, converting timestamps to dst's width; dst keeps its own
// options. The caller guarantees that src's timestamps fit dst's width.
func CopyKernel[D, S Cell](dst *Kernel[D], src *Kernel[S]) {
	dst.ID = src.ID
	dst.InducedThread, dst.InducedExternal = src.InducedThread, src.InducedExternal
	dst.Stack = make([]Frame[D], len(src.Stack))
	for i, f := range src.Stack {
		dst.Stack[i] = Frame[D]{
			Rtn: f.Rtn, TS: D(f.TS), BBEnter: f.BBEnter,
			TRMS: f.TRMS, RMS: f.RMS,
			InducedThread: f.InducedThread, InducedExternal: f.InducedExternal,
			Partial: f.Partial,
		}
	}
	dst.Acts = make([]*Activations, len(src.Acts))
	for i, a := range src.Acts {
		if a != nil {
			dst.Acts[i] = a.clone()
		}
	}
}

// findFrame returns the largest index j with stack[j].TS <= ts, or -1.
// Frame timestamps increase with the index, so binary search applies — the
// O(log d) step of the paper's analysis.
func findFrame[C Cell](stack []Frame[C], ts C) int {
	lo, hi := 0, len(stack)-1
	j := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if stack[mid].TS <= ts {
			j = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return j
}
