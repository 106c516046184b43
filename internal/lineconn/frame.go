package lineconn

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// Framed transport compression. When a hello
// negotiates it, everything after the handshake travels as frames: a
// 4-byte big-endian length of a DEFLATE-compressed payload, then that
// payload. Each frame is an independent flate stream (no cross-frame
// window — a lost frame costs nothing downstream) whose decompressed
// payload carries one or more complete '\n'-terminated protocol lines,
// so the framing never splits a line and the JSON layer above is
// untouched. The hello itself always travels uncompressed in both
// directions: the reply decides whether frames follow.

// MaxFramePayload caps one frame's decompressed payload. It matches
// the server's request-line cap with headroom for a burst of lines.
const MaxFramePayload = 64 << 20

// maxFrameWire caps the compressed payload length accepted off the
// wire: flate never expands MaxFramePayload past this.
const maxFrameWire = MaxFramePayload + 1<<16

// FrameWriter accumulates written lines and flushes them as one
// compressed frame. It is not safe for concurrent use; callers hold
// their connection's write lock.
type FrameWriter struct {
	dst  io.Writer
	pend bytes.Buffer
	comp bytes.Buffer
	fw   *flate.Writer
}

// NewFrameWriter builds a FrameWriter onto dst.
func NewFrameWriter(dst io.Writer) *FrameWriter {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return &FrameWriter{dst: dst, fw: fw}
}

// Write buffers p (part of one or more protocol lines) into the
// pending frame. It never touches dst.
func (w *FrameWriter) Write(p []byte) (int, error) {
	return w.pend.Write(p)
}

// Flush compresses everything buffered since the last flush into one
// frame and writes it to dst in a single Write, returning the wire
// bytes written (header included). Nothing pending writes nothing. The
// pending payload must end at a line boundary — the peer rejects
// frames that split a line.
func (w *FrameWriter) Flush() (int, error) {
	if w.pend.Len() == 0 {
		return 0, nil
	}
	if b := w.pend.Bytes(); b[len(b)-1] != '\n' {
		return 0, fmt.Errorf("lineconn: frame payload does not end at a line boundary")
	}
	if w.pend.Len() > MaxFramePayload {
		return 0, fmt.Errorf("lineconn: frame payload of %d bytes exceeds cap %d", w.pend.Len(), MaxFramePayload)
	}
	w.comp.Reset()
	w.comp.Write([]byte{0, 0, 0, 0}) // length header, patched below
	w.fw.Reset(&w.comp)
	if _, err := w.fw.Write(w.pend.Bytes()); err != nil {
		return 0, err
	}
	if err := w.fw.Close(); err != nil {
		return 0, err
	}
	w.pend.Reset()
	frame := w.comp.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, err := w.dst.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// FrameReader decodes the framed transport back into protocol lines.
// It is not safe for concurrent use; one read pump owns it.
type FrameReader struct {
	src io.Reader
	fr  io.ReadCloser // flate reader, Reset per frame
	hdr [4]byte
	buf []byte
	off int
}

// NewFrameReader builds a FrameReader over src.
func NewFrameReader(src io.Reader) *FrameReader {
	return &FrameReader{src: src}
}

// Next returns the next protocol line (trailing newline included) and
// the wire bytes consumed fetching it — nonzero only when a fresh
// frame was read; later lines of the same frame cost zero. Corrupt
// input — bad headers, oversized, truncated or undecompressable
// frames, payloads that do not end at a line boundary — returns an
// error and never panics (FuzzFrameRead holds it to that). A clean EOF
// at a frame boundary surfaces as io.EOF. The returned slice is valid
// until the next call.
func (r *FrameReader) Next() ([]byte, int, error) {
	wire := 0
	if r.off >= len(r.buf) {
		n, err := r.readFrame()
		if err != nil {
			return nil, 0, err
		}
		wire = n
	}
	i := bytes.IndexByte(r.buf[r.off:], '\n')
	if i < 0 {
		// Unreachable for frames readFrame accepted, kept as a guard.
		return nil, wire, fmt.Errorf("lineconn: frame carries a partial line")
	}
	line := r.buf[r.off : r.off+i+1]
	r.off += i + 1
	return line, wire, nil
}

// readFrame reads and decompresses one frame into the line buffer,
// returning the wire bytes consumed.
func (r *FrameReader) readFrame() (int, error) {
	if _, err := io.ReadFull(r.src, r.hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n == 0 {
		return 4, fmt.Errorf("lineconn: empty frame")
	}
	if n > maxFrameWire {
		return 4, fmt.Errorf("lineconn: frame of %d compressed bytes exceeds cap %d", n, maxFrameWire)
	}
	comp := make([]byte, n)
	if _, err := io.ReadFull(r.src, comp); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 4, fmt.Errorf("lineconn: truncated frame: %w", err)
	}
	wire := 4 + int(n)
	src := bytes.NewReader(comp)
	if r.fr == nil {
		r.fr = flate.NewReader(src)
	} else if err := r.fr.(flate.Resetter).Reset(src, nil); err != nil {
		return wire, fmt.Errorf("lineconn: resetting frame decompressor: %w", err)
	}
	payload, err := io.ReadAll(io.LimitReader(r.fr, MaxFramePayload+1))
	if err != nil {
		return wire, fmt.Errorf("lineconn: corrupt frame: %w", err)
	}
	if len(payload) > MaxFramePayload {
		return wire, fmt.Errorf("lineconn: frame decompresses past cap %d", MaxFramePayload)
	}
	if len(payload) == 0 || payload[len(payload)-1] != '\n' {
		return wire, fmt.Errorf("lineconn: frame payload does not end at a line boundary")
	}
	r.buf, r.off = payload, 0
	return wire, nil
}
