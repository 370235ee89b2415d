package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := hello{Tenant: "acme", Process: "mysqld-1"}
	if err := writeHello(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readHello(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestHelloRejects(t *testing.T) {
	long := strings.Repeat("x", maxNameLen+1)
	for _, h := range []hello{
		{Tenant: "", Process: "p"},
		{Tenant: "t", Process: ""},
		{Tenant: long, Process: "p"},
	} {
		if err := writeHello(io.Discard, h); err == nil {
			t.Errorf("writeHello accepted %+v", h)
		}
	}
	for name, raw := range map[string][]byte{
		"bad magic":   []byte("NOPE\x01"),
		"bad version": []byte("APRD\x07"),
		"truncated":   []byte("APR"),
	} {
		if _, err := readHello(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("readHello accepted %s", name)
		}
	}
}

func TestFrameRoundTripAndBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty payload should write nothing (err %v, %d bytes)", err, buf.Len())
	}
	payload := bytes.Repeat([]byte("frame"), 100)
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("frame payload mangled in transit")
	}
	if _, err := readFrame(&buf, got); !errors.Is(err, io.EOF) {
		t.Errorf("clean boundary should read io.EOF, got %v", err)
	}

	if err := writeFrame(io.Discard, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 'x'}), nil); err == nil {
		t.Error("implausible frame length accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadFrameTornHeaderAllocatesLittle: a header claiming the largest
// legal frame, followed by end of input, fails as a truncated frame without
// allocating anywhere near the claimed length.
func TestReadFrameTornHeaderAllocatesLittle(t *testing.T) {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(head[:]), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "daemon: truncated frame:") {
		t.Fatalf("torn frame: got %v, want the truncated-frame error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("torn %d-byte frame allocated %d bytes, want < 1 MiB", maxFrame, grew)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.aprofdck"
	meta := checkpointMeta{Tenant: "t", Windows: 3, Events: 42}
	export, err := core.MergePartials().Profile.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(path, meta, export); err != nil {
		t.Fatal(err)
	}
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta != meta {
		t.Errorf("meta round trip: got %+v, want %+v", ck.Meta, meta)
	}
	if ck, err := loadCheckpoint(dir + "/absent.aprofdck"); ck != nil || err != nil {
		t.Errorf("missing checkpoint should be (nil, nil), got (%v, %v)", ck, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint loaded without error")
	}
}

// FuzzTenantCheckpoint: decodeCheckpoint must never panic, and a
// checkpoint it accepts must re-encode (as the daemon writes it) to bytes
// that decode to the same meta and profile. Each input is tried twice: as
// a whole file, and as the meta and profile payloads framed with valid
// checksums, since random bytes almost never get past a CRC to the JSON
// decoders behind it.
func FuzzTenantCheckpoint(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of new inputs cheap.
	prof := core.NewProfile()
	a := core.NewActivations(1)
	a.Record(3, 2, 1, 0, 40)
	prof.AddActivations("parse", a)
	prof.InducedThread = 1
	export, err := json.Marshal(prof.Dump())
	if err != nil {
		f.Fatal(err)
	}
	meta := []byte(`{"tenant":"acme","windows":3,"events":42,"degraded":true}`)
	file, err := encodeCheckpoint(checkpointMeta{Tenant: "acme", Windows: 3, Events: 42}, export)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file, []byte{})
	f.Add(meta, export)
	f.Add(file[:len(file)/2], []byte(`{}`))
	f.Add([]byte(`{}`), []byte(`{"routines":[]}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		framed := appendBlock(appendBlock([]byte(checkpointMagic), a), b)
		for _, data := range [][]byte{a, framed} {
			ck, err := decodeCheckpoint(data)
			if err != nil {
				continue
			}
			dump, err := json.Marshal(ck.profile.Dump())
			if err != nil {
				t.Fatalf("accepted profile does not marshal: %v", err)
			}
			re, err := encodeCheckpoint(ck.Meta, dump)
			if err != nil {
				t.Fatalf("accepted meta does not re-encode: %v", err)
			}
			back, err := decodeCheckpoint(re)
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if back.Meta != ck.Meta {
				t.Fatalf("meta %+v round-trips to %+v", ck.Meta, back.Meta)
			}
			want, err := ck.profile.Export()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.profile.Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("profile does not round-trip")
			}
		}
	})
}

// FuzzHello: readHello must never panic on arbitrary bytes, and a hello it
// accepts must hold valid names and survive a write/read round trip. (The
// bytes need not re-encode identically: ReadUvarint accepts overlong
// length encodings.)
func FuzzHello(f *testing.F) {
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Tenant: "acme", Process: "mysqld-1"}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(helloMagic)+1])
	f.Add([]byte("APRD\x01\x00"))
	f.Add([]byte("APRD\x01\xff\xff\xff\xff\x0f"))
	f.Add([]byte("NOPE\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readHello(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if validName("tenant", h.Tenant) != nil || validName("process", h.Process) != nil {
			t.Fatalf("accepted invalid names %+v", h)
		}
		var re bytes.Buffer
		if err := writeHello(&re, h); err != nil {
			t.Fatalf("accepted hello does not re-encode: %v", err)
		}
		if back, err := readHello(bufio.NewReader(&re)); err != nil || back != h {
			t.Fatalf("hello %+v round-trips to %+v (%v)", h, back, err)
		}
	})
}

// FuzzFrame: readFrame must never panic on arbitrary bytes, every frame it
// returns must be non-empty and within maxFrame, and the frames it reads
// must re-encode to the bytes they consumed.
func FuzzFrame(f *testing.F) {
	var buf bytes.Buffer
	for _, p := range [][]byte{[]byte("x"), bytes.Repeat([]byte("frame"), 40)} {
		if err := writeFrame(&buf, p); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:7])
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var re bytes.Buffer
		var frame []byte
		for {
			var err error
			frame, err = readFrame(r, frame)
			if err != nil {
				break
			}
			if len(frame) == 0 || len(frame) > maxFrame {
				t.Fatalf("frame of %d bytes outside (0, %d]", len(frame), maxFrame)
			}
			if err := writeFrame(&re, frame); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(data, re.Bytes()) {
			t.Fatal("frames read do not re-encode to the bytes they consumed")
		}
	})
}
