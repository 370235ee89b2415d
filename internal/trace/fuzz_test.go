package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/trace"
)

// fuzzSeedTrace builds a small but representative trace covering both name
// tables, several threads and every hot event kind.
func fuzzSeedTrace() *trace.Trace {
	tr := &trace.Trace{
		Routines: []string{"main", "worker", "leaf"},
		Syncs:    []string{"mu"},
	}
	for th := int32(0); th < 3; th++ {
		tt := trace.ThreadTrace{ID: guest.ThreadID(th)}
		ts := uint64(th) * 100
		add := func(k trace.Kind, arg, aux uint64) {
			ts += 3
			tt.Events = append(tt.Events, trace.Event{TS: ts, Thread: tt.ID, Kind: k, Arg: arg, Aux: aux})
		}
		add(trace.KindThreadStart, 0, 0)
		add(trace.KindCall, 0, 10)
		add(trace.KindWrite, 0x1000, 0)
		add(trace.KindRead, 0x1000, 0)
		add(trace.KindSyncAcquire, 0, 0)
		add(trace.KindKernelRead, 0x2000, 0)
		add(trace.KindSyncRelease, 0, 0)
		add(trace.KindReturn, 0, 25)
		add(trace.KindThreadExit, 0, 0)
		tr.Threads = append(tr.Threads, tt)
	}
	return tr
}

func fuzzSeeds(f *testing.F) {
	tr := fuzzSeedTrace()
	var buf bytes.Buffer
	if _, err := tr.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	f.Add(append([]byte("ISPTRACE"), 1)) // the retired v1 version byte
	f.Add(clean[:len(clean)/2])
	f.Add(clean[:len(clean)-2])
	f.Add(faultinject.FlipBits(clean, 1, 3, 0))
	f.Add(faultinject.FlipBits(clean, 2, 8, 9))
	f.Add([]byte("ISPTRACE"))
	f.Add([]byte{})
}

// FuzzDecode: the strict decoder must never panic or over-allocate on
// arbitrary bytes, and anything it accepts must survive a re-encode/decode
// round trip.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := tr.NumEvents()
		var buf bytes.Buffer
		if _, err := tr.Encode(&buf); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		back, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a fresh encoding: %v", err)
		}
		if back.NumEvents() != n {
			t.Fatalf("round trip changed event count: %d -> %d", n, back.NumEvents())
		}
	})
}

// FuzzRecover: on arbitrary bytes Recover must never panic, and when it
// succeeds the report must be non-nil and account exactly for the salvaged
// trace. Verify must agree on never panicking.
func FuzzRecover(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rep, err := trace.Recover(bytes.NewReader(data))
		if err == nil {
			if tr == nil || rep == nil {
				t.Fatal("successful Recover returned a nil trace or report")
			}
			if rep.SalvagedEvents != tr.NumEvents() {
				t.Fatalf("report says %d events, trace has %d", rep.SalvagedEvents, tr.NumEvents())
			}
			perThread := 0
			for _, th := range rep.PerThread {
				perThread += th.Events
			}
			if perThread != rep.SalvagedEvents {
				t.Fatalf("per-thread events sum to %d, report says %d", perThread, rep.SalvagedEvents)
			}
			_ = rep.String()
		}
		if vr, verr := trace.Verify(bytes.NewReader(data)); verr == nil && vr == nil {
			t.Fatal("successful Verify returned a nil report")
		}
	})
}
