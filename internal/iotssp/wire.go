package iotssp

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"repro/internal/fingerprint"
)

// Server-side dictionary state. Each shard connection owns one
// connWire: the per-connection fingerprint dictionary and name tables,
// nil until a hello negotiates them. The read pump is the only writer,
// so no locking — dictionary coherence depends on decoding requests in
// connection line order, which the single read pump guarantees.
// Verdict connections hold none: every identify frame stands alone.

// connWire is one shard connection's negotiated dictionary state.
type connWire struct {
	// dict is the per-connection fingerprint dictionary, created by the
	// first hello that asks for one. It lives and dies with the TCP
	// connection: a reconnecting client starts from an empty dictionary
	// on both ends, which is what keeps the two coherent.
	dict     *fingerprint.Dict
	dictSize int
	// reqNames and respNames are the connection's type-name intern
	// tables (one per direction), created with the dictionary: requests
	// reference candidate names they sent before, responses reference
	// accepts/score names. They share the dictionary's coherence rules.
	reqNames  *nameDec
	respNames *nameEnc
	// fatal marks the connection unrecoverable: a dictionary-coded
	// request failed to decode, so the two ends' dictionaries can no
	// longer be trusted to agree. The read pump sends the error and
	// severs; the reconnect resets both dictionaries.
	fatal bool
}

// negotiate applies a hello's dictionary ask to the connection and
// echoes the grant into the hello reply. Repeated hellos re-echo the
// standing grant without resetting the dictionary.
func (cw *connWire) negotiate(resp *Hello, dictAsk int) {
	if dictAsk > 0 && cw.dict == nil {
		size := dictAsk
		if size > MaxDictSize {
			size = MaxDictSize
		}
		cw.dict = fingerprint.NewDict(size)
		cw.dictSize = size
		cw.reqNames = &nameDec{}
		cw.respNames = &nameEnc{}
	}
	if cw.dictSize > 0 {
		resp.Dict = cw.dictSize
	}
}

// maxLineBytes caps one request line.
const maxLineBytes = 16 * 1024 * 1024

// msgReader reads requests off a connection. Each message's first
// byte tells its form: frameIdentify opens an identify frame, anything
// else a '\n'-terminated JSON line (capped at maxLineBytes; a final
// unterminated line is still returned). Both server modes read through
// it, so each answers the other mode's clients cleanly.
type msgReader struct {
	br  *bufio.Reader
	buf []byte
}

func newMsgReader(conn net.Conn) *msgReader {
	return &msgReader{br: bufio.NewReaderSize(conn, 64*1024)}
}

// next returns the next message: an identify frame's body (frame set)
// or a JSON line without its line ending, valid until the next call.
// io.EOF marks a clean end of stream; any other error leaves the stream
// unreadable.
func (r *msgReader) next() (msg []byte, frame bool, err error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		return nil, false, err
	}
	if kind == frameIdentify {
		msg, r.buf, err = readFrame(r.br, r.buf)
		return msg, true, err
	}
	r.br.UnreadByte()
	r.buf = r.buf[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		r.buf = append(r.buf, chunk...)
		if len(r.buf) > maxLineBytes {
			return nil, false, fmt.Errorf("iotssp: request line exceeds %d bytes", maxLineBytes)
		}
		if err == nil || (err == io.EOF && len(r.buf) > 0) {
			return trimLine(r.buf), false, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, false, err
		}
	}
}

// trimLine strips the trailing newline (and optional carriage return),
// matching bufio.ScanLines.
func trimLine(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}
