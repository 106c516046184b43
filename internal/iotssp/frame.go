package iotssp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/features"
	"repro/internal/fingerprint"
)

// The identify wire between gateway.Pool and a verdict server is binary
// frames, one per request and one per reply. A frame is a kind byte,
// the body length as a 4-byte big-endian integer, and the body:
//
//	identify (gateway → server), kind frameIdentify:
//	    string mac                the MAC as the gateway sent it
//	    matrix                    fingerprint.AppendBinary varints, to
//	                              the end of the body
//	verdict (server → gateway), kind frameVerdict:
//	    uvarint line              the request's message number
//	    flags                     flagKnown | flagNotify | flagRetryable
//	    stage, level              enum bytes (stageNames, levelNames)
//	    string device type, string error
//	    list endpoints, list advisories, list channels
//
// A string is a uvarint length and its bytes; a list is a uvarint count
// and that many strings. A verdict carries no MAC: the client knows
// which MAC it asked about. A frame carries no hash either: the server
// keys its verdict cache from the matrix bytes with its own seed, and
// never trusts a key a client could choose.
const (
	frameIdentify byte = 0x01
	frameVerdict  byte = 0x02
)

// frameHeader is the kind byte plus the body length.
const frameHeader = 5

// maxFrameBytes caps one frame's body. A header claiming more is a
// protocol error that severs the connection.
const maxFrameBytes = 1 << 20

// Verdict flags.
const (
	flagKnown byte = 1 << iota
	flagNotify
	flagRetryable
)

// stageNames and levelNames are the verdict enums, index = wire byte.
// Index 0 is the empty string an error reply carries.
var (
	stageNames = [...]string{"", "none", "classification", "discrimination"}
	levelNames = [...]string{"", "strict", "restricted", "trusted"}
)

// enumByte returns s's index in names (0 for a name it lacks).
func enumByte(names []string, s string) byte {
	for i, n := range names {
		if n == s {
			return byte(i)
		}
	}
	return 0
}

// Request is one identify request as a frame carries it.
type Request struct {
	// MAC is the device's hardware address as the gateway sent it.
	MAC string
	// Matrix is the F matrix in fingerprint.AppendBinary form.
	Matrix []byte
}

// AppendIdentifyFrame appends the identify frame for (mac, fp) to buf.
func AppendIdentifyFrame(buf []byte, mac string, fp *fingerprint.Fingerprint) []byte {
	// Most matrix values take one or two varint bytes: size for two so
	// the frame is built in one allocation.
	buf = slices.Grow(buf, frameHeader+binary.MaxVarintLen64+len(mac)+2*fp.Len()*features.NumFeatures)
	start := len(buf)
	buf = append(buf, frameIdentify, 0, 0, 0, 0)
	buf = appendString(buf, mac)
	buf = fingerprint.AppendBinary(buf, fp)
	return sealFrame(buf, start)
}

// AppendVerdictFrame appends r's verdict frame to buf. r.MAC does not
// travel.
func AppendVerdictFrame(buf []byte, r *Response) []byte {
	start := len(buf)
	buf = append(buf, frameVerdict, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, r.Line)
	var flags byte
	if r.Known {
		flags |= flagKnown
	}
	if r.NotifyUser {
		flags |= flagNotify
	}
	if r.Retryable {
		flags |= flagRetryable
	}
	buf = append(buf, flags, enumByte(stageNames[:], r.Stage), enumByte(levelNames[:], r.Level))
	buf = appendString(buf, r.DeviceType)
	buf = appendString(buf, r.Error)
	for _, list := range [...][]string{r.PermittedEndpoints, r.Vulnerabilities, r.UncontrolledChannels} {
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		for _, s := range list {
			buf = appendString(buf, s)
		}
	}
	return sealFrame(buf, start)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// sealFrame writes the body length into the header of the frame that
// opens at buf[start].
func sealFrame(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-frameHeader))
	return buf
}

// readFrame reads the body of a frame whose kind byte has been
// consumed into scratch, returned for reuse; the body is valid until
// scratch is next used. Scratch grows only as body bytes arrive, so a
// length claim alone allocates nothing, and never past maxFrameBytes.
func readFrame(br *bufio.Reader, scratch []byte) (body, next []byte, err error) {
	hdr, err := br.Peek(frameHeader - 1)
	if err != nil {
		return nil, scratch, fmt.Errorf("reading frame length: %w", err)
	}
	size := int(binary.BigEndian.Uint32(hdr))
	br.Discard(len(hdr))
	if size > maxFrameBytes {
		return nil, scratch, fmt.Errorf("frame of %d bytes exceeds the %d-byte cap", size, maxFrameBytes)
	}
	body = scratch[:0]
	for len(body) < size {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(size-len(body), max(cap(body), 512)))
		}
		k, err := br.Read(body[len(body):min(cap(body), size)])
		body = body[:len(body)+k]
		if err != nil {
			return nil, body, fmt.Errorf("reading frame body: %w", err)
		}
	}
	return body, body, nil
}

// errShortFrame reports a body that ends inside a field.
var errShortFrame = errors.New("frame body ends inside a field")

// field splits one length-prefixed string off b.
func field(b []byte) (s, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, errShortFrame
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// splitIdentify validates an identify frame body, MAC and matrix
// varints alike, without allocating: the returned slices alias body.
func splitIdentify(body []byte) (mac, matrix []byte, err error) {
	mac, matrix, err = field(body)
	if err != nil {
		return nil, nil, err
	}
	if err := fingerprint.CheckBinary(matrix); err != nil {
		return nil, nil, err
	}
	return mac, matrix, nil
}

// ReadRequest reads one identify frame off br — the server's request
// decode as a standalone reader for peers that stand in for a verdict
// server.
func ReadRequest(br *bufio.Reader) (Request, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return Request{}, err
	}
	if kind != frameIdentify {
		return Request{}, fmt.Errorf("iotssp: frame kind %#x is not an identify frame", kind)
	}
	body, _, err := readFrame(br, nil)
	if err != nil {
		return Request{}, fmt.Errorf("iotssp: %w", err)
	}
	mac, matrix, err := splitIdentify(body)
	if err != nil {
		return Request{}, fmt.Errorf("iotssp: identify frame: %w", err)
	}
	return Request{MAC: string(mac), Matrix: matrix}, nil
}

// maxRemembered bounds a verdict reader's table of decoded verdicts, so
// a hostile server cannot grow a client without bound.
const maxRemembered = 1024

// NewVerdictReader returns a reader of verdict frames for one
// connection's read pump (the lineconn decoder hook gateway.Pool
// installs). It reports the bytes each frame took. A fleet's verdicts
// repeat — the same device types with the same levels and lists — so
// the reader remembers each distinct verdict by its bytes after the
// line echo: a repeat decodes without allocating. The returned
// Responses share their strings and slices and must be treated as
// immutable. A reader is not safe for concurrent use.
func NewVerdictReader() func(*bufio.Reader) (Response, int, error) {
	var scratch []byte
	seen := make(map[string]Response)
	return func(br *bufio.Reader) (Response, int, error) {
		kind, err := br.ReadByte()
		if err != nil {
			return Response{}, 0, err
		}
		if kind != frameVerdict {
			return Response{}, 1, fmt.Errorf("iotssp: frame kind %#x is not a verdict frame", kind)
		}
		var body []byte
		if body, scratch, err = readFrame(br, scratch); err != nil {
			return Response{}, 1, fmt.Errorf("iotssp: %w", err)
		}
		n := frameHeader + len(body)
		line, k := binary.Uvarint(body)
		if k <= 0 {
			return Response{}, n, fmt.Errorf("iotssp: verdict frame: %w", errShortFrame)
		}
		resp, ok := seen[string(body[k:])]
		if !ok {
			if resp, err = decodeVerdict(body[k:]); err != nil {
				return Response{}, n, fmt.Errorf("iotssp: verdict frame: %w", err)
			}
			// Errors name their line, so they never repeat.
			if resp.Error == "" && len(seen) < maxRemembered {
				seen[string(body[k:])] = resp
			}
		}
		resp.Line = line
		return resp, n, nil
	}
}

// decodeVerdict decodes a verdict frame body after its line echo.
func decodeVerdict(b []byte) (Response, error) {
	var r Response
	if len(b) < 3 {
		return r, errShortFrame
	}
	flags, stage, level := b[0], b[1], b[2]
	if flags&^(flagKnown|flagNotify|flagRetryable) != 0 {
		return r, fmt.Errorf("unknown flags %#x", flags)
	}
	if int(stage) >= len(stageNames) || int(level) >= len(levelNames) {
		return r, fmt.Errorf("unknown stage %d or level %d", stage, level)
	}
	r.Known, r.NotifyUser, r.Retryable = flags&flagKnown != 0, flags&flagNotify != 0, flags&flagRetryable != 0
	r.Stage, r.Level = stageNames[stage], levelNames[level]
	b = b[3:]
	for _, dst := range [...]*string{&r.DeviceType, &r.Error} {
		s, rest, err := field(b)
		if err != nil {
			return r, err
		}
		*dst, b = string(s), rest
	}
	for _, dst := range [...]*[]string{&r.PermittedEndpoints, &r.Vulnerabilities, &r.UncontrolledChannels} {
		n, k := binary.Uvarint(b)
		// Every element takes at least its length byte, so a count past
		// the remaining bytes is refused before anything is allocated.
		if k <= 0 || n > uint64(len(b)-k) {
			return r, errShortFrame
		}
		b = b[k:]
		if n == 0 {
			continue
		}
		list := make([]string, n)
		for i := range list {
			s, rest, err := field(b)
			if err != nil {
				return r, err
			}
			list[i], b = string(s), rest
		}
		*dst = list
	}
	if len(b) != 0 {
		return r, fmt.Errorf("%d trailing bytes", len(b))
	}
	return r, nil
}
