package fingerprint

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/features"
)

// Report is the wire form of a device fingerprint as the Security Gateway
// submits it to the IoT Security Service. It carries no identity beyond
// the observed MAC (needed by the gateway to apply the returned isolation
// level); the IoTSSP stores nothing about its clients.
//
// The F matrix travels in one of two shapes. Vectors is the readable
// form: one JSON row per packet column. Packed is the compact form the
// high-throughput clients send: the same values as zigzag varints,
// base64-encoded, which shrinks the request several-fold and — more
// importantly under load — replaces hundreds of JSON number parses per
// request with one string scan. When Packed is set it wins; Vectors is
// ignored.
type Report struct {
	// MAC is the device's hardware address as printed by packet.MAC.
	MAC string `json:"mac"`
	// Vectors is the F matrix, one row per packet column.
	Vectors [][]int32 `json:"vectors,omitempty"`
	// Packed is the F matrix as base64(zigzag varints), row-major.
	Packed string `json:"packed,omitempty"`
}

// MarshalReportStruct builds the wire struct for a fingerprint.
func MarshalReportStruct(mac string, f *Fingerprint) (Report, error) {
	if f == nil {
		return Report{}, fmt.Errorf("encoding fingerprint report: nil fingerprint")
	}
	rows := make([][]int32, f.Len())
	for i := 0; i < f.Len(); i++ {
		v := f.At(i)
		rows[i] = append([]int32(nil), v[:]...)
	}
	return Report{MAC: mac, Vectors: rows}, nil
}

// MarshalReportPacked builds the compact wire struct for a fingerprint
// (the form the pooled gateway clients send).
func MarshalReportPacked(mac string, f *Fingerprint) (Report, error) {
	packed, err := Pack(f)
	if err != nil {
		return Report{}, err
	}
	return Report{MAC: mac, Packed: packed}, nil
}

// Pack encodes a fingerprint's F matrix into the compact packed wire
// form: the row-major int32 values as zigzag varints, base64-encoded.
// It is the matrix codec under MarshalReportPacked, exposed on its own
// for wire forms that ship bare matrices (the shard protocol's CLASSIFY
// batches and ENROLL training sets).
func Pack(f *Fingerprint) (string, error) {
	if f == nil {
		return "", fmt.Errorf("encoding fingerprint report: nil fingerprint")
	}
	buf := make([]byte, 0, f.Len()*features.NumFeatures*2)
	for _, v := range f.vectors {
		for _, c := range v {
			// Zigzag so small negative values stay short.
			buf = binary.AppendUvarint(buf, uint64(uint32(c<<1)^uint32(c>>31)))
		}
	}
	return base64.StdEncoding.EncodeToString(buf), nil
}

// Unpack decodes a packed F matrix back into a fingerprint. Truncated
// varints, bad base64, overflowing values and partial rows all return
// errors; Unpack never panics on hostile input (the fuzz harness holds
// it to that).
func Unpack(packed string) (*Fingerprint, error) {
	vs, err := unpackVectors(packed)
	if err != nil {
		return nil, err
	}
	return FromVectors(vs), nil
}

// AppendBinary appends the raw binary form of the F matrix to buf — the
// same row-major zigzag varints as Pack, without the base64 shell. It
// is the canonical matrix encoding: bank snapshots store it, identify
// frames carry it, and the verdict cache keys entries by a seeded hash
// of it.
func AppendBinary(buf []byte, f *Fingerprint) []byte {
	for _, v := range f.vectors {
		for _, c := range v {
			buf = binary.AppendUvarint(buf, uint64(uint32(c<<1)^uint32(c>>31)))
		}
	}
	return buf
}

// CheckBinary validates an AppendBinary encoding without decoding it:
// every varint complete and within int32, and a positive whole number
// of packet columns. It allocates nothing, so a server can refuse a
// hostile matrix before it spends anything on it. Data CheckBinary
// accepts, DecodeBinary decodes.
func CheckBinary(data []byte) error {
	_, err := binaryValues(data)
	return err
}

// binaryValues counts the values of a valid AppendBinary encoding.
func binaryValues(data []byte) (int, error) {
	n := 0
	for len(data) > 0 {
		u, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, fmt.Errorf("decoding fingerprint matrix: truncated varint")
		}
		if u > 0xffffffff {
			return 0, fmt.Errorf("decoding fingerprint matrix: value overflows int32")
		}
		data = data[k:]
		n++
	}
	if n == 0 || n%features.NumFeatures != 0 {
		return 0, fmt.Errorf("decoding fingerprint matrix: %d values, want a positive multiple of %d",
			n, features.NumFeatures)
	}
	return n, nil
}

// DecodeBinary decodes an AppendBinary encoding. The whole of data must
// be consumed; corrupt or truncated input returns an error, never
// panics (the snapshot fuzz harness holds the codec to that). It
// decodes straight into one vector slice and drops consecutive
// duplicate columns in place, so a fingerprint costs two allocations
// whatever its length.
func DecodeBinary(data []byte) (*Fingerprint, error) {
	n, err := binaryValues(data)
	if err != nil {
		return nil, err
	}
	vs := make([]features.Vector, n/features.NumFeatures)
	for i := range vs {
		for j := range vs[i] {
			u, k := binary.Uvarint(data)
			data = data[k:]
			vs[i][j] = int32(uint32(u)>>1) ^ -int32(u&1)
		}
	}
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return &Fingerprint{vectors: out}, nil
}

// PackDelta encodes a fingerprint's F matrix into the delta-packed wire
// form: the first row as zigzag varints, every later row as per-column
// differences from its predecessor, base64-encoded. Consecutive setup
// packets share most feature values, so the deltas are overwhelmingly
// zero and encode in one byte each — a lossless shrink of classify
// batches by roughly a third against Pack. It is the shard wire's
// classify encoding off a dictionary; UnpackDelta inverts it exactly.
func PackDelta(f *Fingerprint) (string, error) {
	if f == nil {
		return "", fmt.Errorf("encoding fingerprint report: nil fingerprint")
	}
	buf := make([]byte, 0, f.Len()*features.NumFeatures)
	var prev features.Vector
	for _, v := range f.vectors {
		for j, c := range v {
			d := c - prev[j]
			buf = binary.AppendUvarint(buf, uint64(uint32(d<<1)^uint32(d>>31)))
		}
		prev = v
	}
	return base64.StdEncoding.EncodeToString(buf), nil
}

// UnpackDelta decodes a delta-packed F matrix back into a fingerprint.
// Like Unpack it errors — never panics — on truncated varints, bad
// base64, overflow and partial rows.
func UnpackDelta(packed string) (*Fingerprint, error) {
	raw, err := base64.StdEncoding.DecodeString(packed)
	if err != nil {
		return nil, fmt.Errorf("decoding fingerprint report: bad delta matrix: %w", err)
	}
	var flat []int32
	for len(raw) > 0 {
		u, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("decoding fingerprint report: truncated delta matrix")
		}
		raw = raw[n:]
		if u > 0xffffffff {
			return nil, fmt.Errorf("decoding fingerprint report: delta value overflows int32")
		}
		flat = append(flat, int32(uint32(u)>>1)^-int32(u&1))
	}
	if len(flat)%features.NumFeatures != 0 {
		return nil, fmt.Errorf("decoding fingerprint report: delta matrix holds %d values, not a multiple of %d",
			len(flat), features.NumFeatures)
	}
	vs := make([]features.Vector, len(flat)/features.NumFeatures)
	var prev features.Vector
	for i := range vs {
		for j := 0; j < features.NumFeatures; j++ {
			prev[j] += flat[i*features.NumFeatures+j]
		}
		vs[i] = prev
	}
	return FromVectors(vs), nil
}

// UnmarshalReportStruct validates and decodes a wire struct, accepting
// either matrix shape.
func UnmarshalReportStruct(r Report) (string, *Fingerprint, error) {
	if r.Packed != "" {
		vs, err := unpackVectors(r.Packed)
		if err != nil {
			return "", nil, err
		}
		return r.MAC, FromVectors(vs), nil
	}
	vs := make([]features.Vector, len(r.Vectors))
	for i, row := range r.Vectors {
		if len(row) != features.NumFeatures {
			return "", nil, fmt.Errorf("decoding fingerprint report: row %d has %d features, want %d",
				i, len(row), features.NumFeatures)
		}
		copy(vs[i][:], row)
	}
	return r.MAC, FromVectors(vs), nil
}

// unpackVectors decodes the base64(zigzag varint) matrix form.
func unpackVectors(packed string) ([]features.Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(packed)
	if err != nil {
		return nil, fmt.Errorf("decoding fingerprint report: bad packed matrix: %w", err)
	}
	var flat []int32
	for len(raw) > 0 {
		u, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("decoding fingerprint report: truncated packed matrix")
		}
		raw = raw[n:]
		if u > 0xffffffff {
			return nil, fmt.Errorf("decoding fingerprint report: packed value overflows int32")
		}
		flat = append(flat, int32(uint32(u)>>1)^-int32(u&1))
	}
	if len(flat)%features.NumFeatures != 0 {
		return nil, fmt.Errorf("decoding fingerprint report: packed matrix holds %d values, not a multiple of %d",
			len(flat), features.NumFeatures)
	}
	vs := make([]features.Vector, len(flat)/features.NumFeatures)
	for i := range vs {
		copy(vs[i][:], flat[i*features.NumFeatures:(i+1)*features.NumFeatures])
	}
	return vs, nil
}

// MarshalReport encodes a fingerprint into its JSON wire form.
func MarshalReport(mac string, f *Fingerprint) ([]byte, error) {
	r, err := MarshalReportStruct(mac, f)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("encoding fingerprint report: %w", err)
	}
	return b, nil
}

// UnmarshalReport decodes a JSON fingerprint report, validating vector
// dimensionality.
func UnmarshalReport(b []byte) (string, *Fingerprint, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return "", nil, fmt.Errorf("decoding fingerprint report: %w", err)
	}
	return UnmarshalReportStruct(r)
}
