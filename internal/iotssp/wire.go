package iotssp

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"repro/internal/fingerprint"
	"repro/internal/lineconn"
)

// Server-side wire-compression state. Each connection owns one
// connWire: the per-connection fingerprint dictionary (nil until a
// hello negotiates one) and the framed-flate handshake state. The read pump is the only writer, so no locking —
// dictionary coherence depends on decoding requests in connection line
// order, which the single read pump guarantees.

// connWire is one connection's negotiated wire-compression state.
type connWire struct {
	// dict is the per-connection fingerprint dictionary, created by the
	// first hello that asks for one. It lives and dies with the TCP
	// connection: a reconnecting client starts from an empty dictionary
	// on both ends, which is what keeps the two coherent.
	dict     *fingerprint.Dict
	dictSize int
	// comp reports that responses travel as compressed frames;
	// compPending that the hello granting them has not been sent yet
	// (the grant itself must go out plain).
	comp        bool
	compPending bool
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

// switchFrames is the write pump's in-band signal to start framing:
// everything queued before it (the hello reply granting flate) is
// flushed plain, everything after travels compressed.
type switchFrames struct{}

// negotiate applies a hello's wire-compression asks to the connection
// and echoes the grants into the hello reply. Repeated hellos re-echo
// the standing grants without resetting the dictionary or
// double-switching the framing.
func (cw *connWire) negotiate(resp *Hello, comp string, dictAsk int) {
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
	if comp == CompFlate && !cw.comp && !cw.compPending {
		cw.compPending = true
	}
	if cw.comp || cw.compPending {
		resp.Comp = CompFlate
	}
}

// maxLineBytes caps one request line.
const maxLineBytes = 16 * 1024 * 1024

// lineScanner reads request lines off a connection, in either wire
// shape: plain '\n'-terminated JSON lines, or — after startFrames —
// lines carried inside compressed frames. It mirrors bufio.Scanner's
// contract (Scan/Bytes/Err, a final unterminated line is still
// returned) so the read pumps keep their shape.
type lineScanner struct {
	br   *bufio.Reader
	fr   *lineconn.FrameReader
	line []byte
	buf  []byte
	err  error
}

func newLineScanner(conn net.Conn) *lineScanner {
	return &lineScanner{br: bufio.NewReaderSize(conn, 64*1024)}
}

// startFrames switches the scanner to the framed transport. Bytes
// already buffered stay in play: the first frame may begin immediately
// after the hello line that negotiated it.
func (s *lineScanner) startFrames() {
	s.fr = lineconn.NewFrameReader(s.br)
}

// Scan advances to the next request line.
func (s *lineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.fr != nil {
		line, _, err := s.fr.Next()
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			return false
		}
		s.line = trimLine(line)
		return true
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
