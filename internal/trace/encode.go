package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/guest"
)

// Binary trace format, prelude:
//
//	magic "ISPTRACE" | version byte | body
//
// The body of version 2, the only version, is the crash-safe segmented
// format implemented in format2.go: checksummed name-table blocks,
// per-thread event segments and a footer. Timestamps are delta-encoded
// within each segment, which keeps typical events at 4-6 bytes. See
// docs/TRACE_FORMAT.md.

var magic = [8]byte{'I', 'S', 'P', 'T', 'R', 'A', 'C', 'E'}

// formatVersion is the wire-format version Encode writes and Decode reads.
const formatVersion = 2

// FormatVersion returns the current binary trace-format version byte.
func FormatVersion() byte { return formatVersion }

// VersionError reports a trace wire-format version the current code cannot
// process: Decode returns it for traces written by an unknown format
// revision, and Combine returns it when asked to join traces of differing
// versions. Unwrap with errors.As.
type VersionError struct {
	// Want is the version this build supports (Decode) or the version of
	// the first trace (Combine); Got is the offending version.
	Want, Got byte
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: format version %d not supported (want %d)", e.Got, e.Want)
}

// Decode reads a trace in the binary format, strictly: every checksum must
// verify and the footer must be present and consistent. Use Recover to
// salvage intact segments from damaged traces instead.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if err := readPrelude(br); err != nil {
		return nil, err
	}
	return decodeV2(&trackReader{br: br, n: preludeLen})
}

// preludeLen is the size of the shared prelude: 8 magic bytes + 1 version.
const preludeLen = 9

// readPrelude consumes and validates the magic and the version byte; any
// version but formatVersion is a *VersionError.
func readPrelude(br *bufio.Reader) error {
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("trace: bad magic %q", m[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != formatVersion {
		return &VersionError{Want: formatVersion, Got: ver}
	}
	return nil
}

// threadIDFromWire decodes a thread id from its uint32 wire image.
func threadIDFromWire(v uint64) guest.ThreadID { return guest.ThreadID(int32(uint32(v))) }
