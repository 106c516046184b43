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
// Verdict connections hold none: their identify lines are plain.

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

// lineScanner reads '\n'-terminated request lines off a connection,
// capped at maxLineBytes. It mirrors bufio.Scanner's contract
// (Scan/Bytes/Err, a final unterminated line is still returned) so the
// read pumps keep their shape.
type lineScanner struct {
	br   *bufio.Reader
	line []byte
	buf  []byte
	err  error
}

func newLineScanner(conn net.Conn) *lineScanner {
	return &lineScanner{br: bufio.NewReaderSize(conn, 64*1024)}
}

// Scan advances to the next request line.
func (s *lineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	s.buf = s.buf[:0]
	for {
		chunk, err := s.br.ReadSlice('\n')
		s.buf = append(s.buf, chunk...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(s.buf) > maxLineBytes {
				s.err = fmt.Errorf("iotssp: request line exceeds %d bytes", maxLineBytes)
				return false
			}
			continue
		}
		if err == io.EOF {
			if len(s.buf) == 0 {
				return false // clean end of stream
			}
			break // final unterminated line, bufio.Scanner compat
		}
		s.err = err
		return false
	}
	if len(s.buf) > maxLineBytes {
		s.err = fmt.Errorf("iotssp: request line exceeds %d bytes", maxLineBytes)
		return false
	}
	s.line = trimLine(s.buf)
	return true
}

// Bytes returns the current line, valid until the next Scan.
func (s *lineScanner) Bytes() []byte { return s.line }

// Err reports the first non-EOF error, as bufio.Scanner does.
func (s *lineScanner) Err() error { return s.err }

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
