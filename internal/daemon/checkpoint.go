// Tenant checkpoints: the rolling profile plus its window accounting,
// written atomically at every cut so a daemon restart resumes the rolling
// merge where it left off. Only the merged aggregate is persisted — the
// analyzer's in-flight state (shadow memory, open stacks) is execution-
// local and dies with its epoch; after a restart, new epochs merge on top
// of the restored aggregate exactly as they would have on the live one.
package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
)

const (
	// checkpointMagic heads every checkpoint file; the trailing byte is the
	// format version.
	checkpointMagic = "APRDCKP\x01"
	// checkpointExt is the checkpoint file suffix under CheckpointDir.
	checkpointExt = ".aprofdck"
)

var checkpointTable = crc32.MakeTable(crc32.Castagnoli)

// checkpointMeta is the checkpoint's accounting header, stored as JSON in
// the first block.
type checkpointMeta struct {
	// Tenant is the owning tenant's name.
	Tenant string `json:"tenant"`
	// Windows is the number of windows folded into the profile.
	Windows int `json:"windows"`
	// Events is the number of events those windows analyzed.
	Events uint64 `json:"events"`
	// Degraded records that some connection died mid-stream before this
	// checkpoint, or that the checkpoint was cut while a connection was
	// still streaming (a restart cannot resume that execution).
	Degraded bool `json:"degraded"`
}

// loadedCheckpoint is a parsed checkpoint.
type loadedCheckpoint struct {
	Meta    checkpointMeta
	profile *core.Profile
}

// appendBlock appends one CRC32-C framed block: u32 length, payload, u32
// checksum (both little-endian, matching the trace block framing).
func appendBlock(buf, payload []byte) []byte {
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], uint32(len(payload)))
	buf = append(buf, head[:]...)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(head[:], crc32.Checksum(payload, checkpointTable))
	return append(buf, head[:]...)
}

// readBlock slices one framed block off b, verifying its checksum.
func readBlock(b []byte) (payload, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("daemon: checkpoint truncated")
	}
	n := binary.LittleEndian.Uint32(b)
	if int(n) > len(b)-8 {
		return nil, nil, fmt.Errorf("daemon: checkpoint block truncated")
	}
	payload = b[4 : 4+n]
	sum := binary.LittleEndian.Uint32(b[4+n:])
	if crc32.Checksum(payload, checkpointTable) != sum {
		return nil, nil, fmt.Errorf("daemon: checkpoint block checksum mismatch")
	}
	return payload, b[8+n:], nil
}

// writeCheckpoint atomically persists a tenant checkpoint.
func writeCheckpoint(path string, meta checkpointMeta, profile []byte) error {
	buf, err := encodeCheckpoint(meta, profile)
	if err != nil {
		return err
	}
	_, err = trace.AtomicWriteFile(path, buf)
	return err
}

// encodeCheckpoint frames a tenant checkpoint: magic, meta block, profile
// block. The profile block is any JSON form of a core.ProfileDump — the
// daemon writes it compact; the indented Export of older checkpoints reads
// back the same.
func encodeCheckpoint(meta checkpointMeta, profile []byte) ([]byte, error) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(checkpointMagic)+len(mj)+len(profile)+16)
	buf = append(buf, checkpointMagic...)
	buf = appendBlock(buf, mj)
	return appendBlock(buf, profile), nil
}

// loadCheckpoint reads a tenant checkpoint. A missing file (or an empty
// path: checkpointing disabled) is (nil, nil); a present-but-corrupt file
// is an error — the caller starts fresh but should say so.
func loadCheckpoint(path string) (*loadedCheckpoint, error) {
	if path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeCheckpoint(b)
}

// decodeCheckpoint parses the bytes of a tenant checkpoint file.
func decodeCheckpoint(b []byte) (*loadedCheckpoint, error) {
	if len(b) < len(checkpointMagic) || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("daemon: not a checkpoint file")
	}
	b = b[len(checkpointMagic):]
	mj, b, err := readBlock(b)
	if err != nil {
		return nil, err
	}
	ck := &loadedCheckpoint{}
	if err := json.Unmarshal(mj, &ck.Meta); err != nil {
		return nil, fmt.Errorf("daemon: checkpoint meta: %w", err)
	}
	profile, b, err := readBlock(b)
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("daemon: %d trailing bytes after checkpoint", len(b))
	}
	if ck.profile, err = core.ReadJSON(bytes.NewReader(profile)); err != nil {
		return nil, fmt.Errorf("daemon: checkpoint profile: %w", err)
	}
	return ck, nil
}
