package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// workload is one benchmark input: a guest program at a fixed scale,
// recorded with or without stamp annotations. Every path the benchmark
// drives (inline, record, analyze, replay, aprofd) runs on this one input.
// BENCHMARK.json records why each was chosen and which layers it loads.
type workload struct {
	Name     string
	Program  string // workloads registry name
	Threads  int
	Size     int
	Annotate bool // StreamRecorder.SetAnnotations
}

var benchWorkloads = []workload{
	{Name: "mysqld-annotated", Program: "mysqld", Threads: 16, Size: 48, Annotate: true},
	{Name: "botsalgn-fallback", Program: "358.botsalgn", Threads: 16, Size: 1024, Annotate: false},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tieSeed is the merge tie-breaking seed. Machine-recorded traces have
// unique timestamps, so it never changes a result.
const tieSeed = 1

// inputs is everything a run's set-up produces: the recorded trace, the
// oracle profile, the per-connection event streams and a running daemon.
type inputs struct {
	w      workload
	spec   workloads.Spec
	params workloads.Params

	stream []byte       // the v2 recording, as aprof-trace record -stream writes it
	tr     *trace.Trace // stream, decoded
	events int
	ref    []byte // core.FromTrace export of tr: the sequential oracle

	// merged is tr's merged event order without the synthesized switches;
	// guests split it by thread into the two aprofd connections' streams,
	// as TestDaemonSmoke splits a trace, and guestOf maps a thread to its
	// connection.
	merged  []trace.Event
	guests  [2][]trace.Event
	guestOf map[guest.ThreadID]int

	dir string // scratch directory of this set-up (socket, checkpoints)
	d   *daemon.Daemon
	log *lockedBuffer // daemon.Options.Log: any line is a failed operation
}

// setup records the workload, computes the reference profile, splits the
// trace into two guest streams and starts an in-process daemon listening
// on a Unix socket under dir. reg is the daemon's registry (nil outside
// the traced run).
func setup(w workload, seed int64, dir string, reg *telemetry.Registry) (*inputs, error) {
	spec, err := workloads.Get(w.Program)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, spec: spec, params: workloads.Params{Threads: w.Threads, Size: w.Size, Seed: seed}, dir: dir}
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	rec.SetAnnotations(w.Annotate)
	if _, err := workloads.Run(spec, in.params, rec); err != nil {
		return nil, fmt.Errorf("recording %s: %w", w.Name, err)
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("recording %s: %w", w.Name, err)
	}
	in.stream = buf.Bytes()
	if in.tr, err = trace.Decode(bytes.NewReader(in.stream)); err != nil {
		return nil, fmt.Errorf("decoding the recording: %w", err)
	}
	if in.tr.Annotated != w.Annotate {
		return nil, fmt.Errorf("recording annotated=%v, want %v", in.tr.Annotated, w.Annotate)
	}
	in.events = in.tr.NumEvents()
	prof, err := core.FromTrace(in.tr, tieSeed, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference profile: %w", err)
	}
	if in.ref, err = prof.Export(); err != nil {
		return nil, fmt.Errorf("reference export: %w", err)
	}

	in.guestOf = make(map[guest.ThreadID]int, len(in.tr.Threads))
	for i, th := range in.tr.Threads {
		in.guestOf[th.ID] = i % 2
	}
	in.merged = make([]trace.Event, 0, in.events)
	for _, e := range trace.Merge(in.tr, tieSeed) {
		if e.Kind != trace.KindSwitch {
			in.merged = append(in.merged, e)
			g := in.guestOf[e.Thread]
			in.guests[g] = append(in.guests[g], e)
		}
	}
	for g, evs := range in.guests {
		if len(evs) == 0 {
			return nil, fmt.Errorf("guest %d of %s has no events", g, w.Name)
		}
	}

	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	in.log = &lockedBuffer{}
	in.d, err = daemon.Start(daemon.Options{
		Network:       "unix",
		Addr:          filepath.Join(dir, "aprofd.sock"),
		CheckpointDir: filepath.Join(dir, "checkpoints"),
		Registry:      reg,
		Log:           in.log,
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// close stops the daemon and removes the set-up's scratch directory.
func (in *inputs) close() error {
	err := in.d.Close()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// checkExport turns an operation's outcome into a failure: an error, or
// an export that is not byte-identical to the oracle.
func checkExport(got []byte, err error, want []byte) error {
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("profile differs from the oracle (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// tally counts operations attempted and failed.
type tally struct {
	attempted, failed int
	reasons           []string // the first few failures, for the report
}

// record counts one operation; a non-nil err makes it a failure.
func (t *tally) record(op string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", op, err))
	}
}

// replayEnv is the guest.Env of a recorded event stream replayed into a
// recorder: the trace's name tables, and the current event's timestamp as
// the clock.
type replayEnv struct {
	tr  *trace.Trace
	now uint64
}

func (e *replayEnv) RoutineName(r guest.RoutineID) string { return e.tr.RoutineName(r) }
func (e *replayEnv) SyncName(s guest.SyncID) string       { return e.tr.SyncName(s) }
func (e *replayEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *replayEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *replayEnv) Now() uint64                          { return e.now }
