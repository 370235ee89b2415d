package main

import (
	"fmt"
	"strings"
	"testing"
)

// tinyInputs sets up a small annotated mysqld run with its daemon.
func tinyInputs(t *testing.T) *inputs {
	t.Helper()
	w := workload{Name: "tiny", Program: "mysqld", Threads: 2, Size: 4, Annotate: true}
	in, err := setup(w, 7, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := in.close(); err != nil {
			t.Error(err)
		}
	})
	return in
}

// runAll runs every batch route and one aprofd epoch, counting outcomes.
func runAll(in *inputs, tenant string) *tally {
	var tl tally
	for _, op := range batchOps {
		_, err := op.run(in)
		tl.record(op.metric, err)
	}
	_, err := in.flood(tenant)
	tl.record("aprofd flood", err)
	return &tl
}

func TestEveryRouteMatchesTheOracle(t *testing.T) {
	in := tinyInputs(t)
	if tl := runAll(in, "clean"); tl.attempted != 5 || tl.failed != 0 {
		t.Fatalf("clean run: %d attempted, %d failed: %v", tl.attempted, tl.failed, tl.reasons)
	}
}

// Corrupting the oracle on purpose must make every route's check fail
// and be counted as a failed operation, not silently pass.
func TestCorruptedExportCountsAsFailure(t *testing.T) {
	in := tinyInputs(t)
	good := in.ref
	in.ref = append([]byte(nil), good...)
	in.ref[len(in.ref)/2] ^= 0x20

	tl := runAll(in, "corrupt")
	// The recording is checked against the set-up recording, not the
	// profile, so it still passes; every profile-producing route fails.
	if tl.attempted != 5 || tl.failed != 4 {
		t.Fatalf("corrupted oracle: %d attempted, %d failed, want 5 and 4: %v", tl.attempted, tl.failed, tl.reasons)
	}
	for _, r := range tl.reasons {
		if !strings.Contains(r, "differs") {
			t.Errorf("failure reason %q does not name the mismatch", r)
		}
	}

	if err := checkExport(good, nil, good); err != nil {
		t.Errorf("identical export reported as %v", err)
	}
	if err := checkExport(nil, fmt.Errorf("boom"), good); err == nil {
		t.Error("an export error must be a failure")
	}
}

func TestCorruptedRecordingCountsAsFailure(t *testing.T) {
	in := tinyInputs(t)
	in.stream = append([]byte(nil), in.stream...)
	in.stream[len(in.stream)-1] ^= 0xff

	var tl tally
	_, err := recordOp(in)
	tl.record("record", err)
	_, err = analyzeOp(in) // the corrupt bytes no longer decode
	tl.record("analyze", err)
	if tl.failed != 2 {
		t.Fatalf("corrupted recording: %d of %d failed, want 2: %v", tl.failed, tl.attempted, tl.reasons)
	}
}

func TestPacedPhaseMeasuresEveryFrame(t *testing.T) {
	in := tinyInputs(t)
	lag, late, err := in.paced("paced")
	if err != nil {
		t.Fatal(err)
	}
	if len(late) < 3 || len(lag) != len(late) {
		t.Fatalf("%d lags for %d paced frames", len(lag), len(late))
	}
	for _, l := range lag {
		if l < 0 {
			t.Fatalf("negative lag %v", l)
		}
	}
}

func TestTallyKeepsTheFirstReasons(t *testing.T) {
	var tl tally
	tl.record("ok", nil)
	for i := 0; i < 20; i++ {
		tl.record("op", fmt.Errorf("failure %d", i))
	}
	if tl.attempted != 21 || tl.failed != 20 || len(tl.reasons) != 8 || tl.reasons[0] != "op: failure 0" {
		t.Errorf("tally = %+v", tl)
	}
}
