package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/guest"
)

// StreamSegment is one decoded event segment of an incremental v2 stream:
// a run of one thread's events in recording order.
type StreamSegment struct {
	// Thread is the recording thread's id.
	Thread guest.ThreadID
	// Events are the segment's events with absolute timestamps restored.
	Events []Event
}

// StreamDelta is what one Feed call decoded: newly interned name-table
// entries (in id order, appended to the tables accumulated so far), event
// segments, and whether the stream's footer arrived.
type StreamDelta struct {
	// Routines and Syncs are name-table entries interned since the last
	// delta.
	Routines []string
	Syncs    []string
	// Segments are the event segments completed since the last delta.
	Segments []StreamSegment
	// Footer reports that the stream ended cleanly; no further data may
	// follow.
	Footer bool
}

// StreamDecoder incrementally decodes a v2 trace stream from arbitrarily
// chunked byte deliveries, the receiving end of a StreamRecorder writing
// over a network connection. Feed consumes whatever whole blocks the
// buffered bytes contain and returns them decoded; a partial block simply
// waits for more bytes. Any framing fault, checksum mismatch or post-footer
// byte is a permanent error: unlike Recover, which salvages what it can
// from a damaged file at rest, a live stream that corrupts mid-flight has
// no trustworthy continuation, so the decoder stops at the last intact
// block. Stamp-annotation blocks are validated and skipped — a consumer
// merging several streams re-derives interleaving state itself.
type StreamDecoder struct {
	buf      bytes.Buffer
	preluded bool
	footer   bool
	err      error
	routines int // routine names decoded so far
}

// NewStreamDecoder returns a decoder expecting the v2 prelude.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{}
}

// errStreamEnded marks bytes arriving after the footer block.
var errStreamEnded = errors.New("trace: data after stream footer")

// Err returns the decoder's permanent error, if any.
func (d *StreamDecoder) Err() error { return d.err }

// Ended reports whether the stream's footer has been decoded.
func (d *StreamDecoder) Ended() bool { return d.footer }

// Buffered returns the number of fed bytes not yet consumed by complete
// blocks (the partial tail).
func (d *StreamDecoder) Buffered() int { return d.buf.Len() }

// Feed appends p to the decode buffer and decodes every complete block it
// now holds. The returned delta collects everything decoded by this call;
// an error is permanent and any delta content alongside it is the intact
// prefix decoded before the fault.
func (d *StreamDecoder) Feed(p []byte) (StreamDelta, error) {
	var delta StreamDelta
	if d.err != nil {
		return delta, d.err
	}
	d.buf.Write(p)
	if d.footer {
		if d.buf.Len() > 0 {
			d.err = errStreamEnded
		}
		return delta, d.err
	}
	if !d.preluded {
		if d.buf.Len() < preludeLen {
			return delta, nil
		}
		head := d.buf.Next(preludeLen)
		if !bytes.Equal(head[:len(magic)], magic[:]) {
			d.err = fmt.Errorf("trace: bad stream magic %q", head[:len(magic)])
			return delta, d.err
		}
		if v := head[len(magic)]; v != formatVersion {
			d.err = &VersionError{Want: formatVersion, Got: v}
			return delta, d.err
		}
		d.preluded = true
	}
	for {
		n, err := d.decodeBlock(&delta)
		if err != nil {
			d.err = err
			return delta, d.err
		}
		if n == 0 { // partial block: wait for more bytes
			return delta, nil
		}
		d.buf.Next(n)
		if d.footer {
			if d.buf.Len() > 0 {
				d.err = errStreamEnded
			}
			return delta, d.err
		}
	}
}

// decodeBlock decodes one block from the front of the buffer into delta,
// returning its total framed size, or 0 when the buffer holds only part of
// a block.
func (d *StreamDecoder) decodeBlock(delta *StreamDelta) (int, error) {
	b := d.buf.Bytes()
	if len(b) == 0 {
		return 0, nil
	}
	kind := b[0]
	if !validBlockKind(kind) {
		return 0, fmt.Errorf("trace: %w: unknown block kind 0x%02x", errFraming, kind)
	}
	plen, lenBytes := binary.Uvarint(b[1:])
	if lenBytes == 0 {
		return 0, nil // length varint still incomplete
	}
	if lenBytes < 0 || plen > maxBlockPayload {
		return 0, fmt.Errorf("trace: %w: implausible payload length %d", errFraming, plen)
	}
	total := 1 + lenBytes + int(plen) + 4
	if len(b) < total {
		return 0, nil
	}
	body := b[:total-4]
	sum := binary.LittleEndian.Uint32(b[total-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, fmt.Errorf("trace: block kind %q: checksum mismatch", kind)
	}
	payload := body[1+lenBytes:]
	switch kind {
	case blockRoutines, blockSyncs:
		names, err := parseTablePayload(payload)
		if err != nil {
			return 0, fmt.Errorf("trace: name-table block: %w", err)
		}
		if kind == blockRoutines {
			d.routines += len(names)
			delta.Routines = append(delta.Routines, names...)
		} else {
			delta.Syncs = append(delta.Syncs, names...)
		}
	case blockEvents:
		id, events, err := parseSegmentPayload(payload, d.routines)
		if err != nil {
			return 0, fmt.Errorf("trace: segment block: %w", err)
		}
		delta.Segments = append(delta.Segments, StreamSegment{Thread: id, Events: events})
	case blockAnnotations:
		if _, _, _, err := parseAnnotationPayload(payload); err != nil {
			return 0, fmt.Errorf("trace: annotation block: %w", err)
		}
	case blockFooter:
		if _, _, _, err := parseFooterPayload(payload); err != nil {
			return 0, fmt.Errorf("trace: footer block: %w", err)
		}
		d.footer = true
		delta.Footer = true
	}
	return total, nil
}
