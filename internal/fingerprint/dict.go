package fingerprint

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/features"
)

// This file is the per-connection fingerprint dictionary codec of wire
// protocol v4. PR 8's intra-matrix delta packing shaves little on real
// setup fingerprints because rows within one F matrix differ too much;
// the redundancy is *across* requests — a fleet's recurring device
// models submit near-identical matrices over and over. A Dict is the
// connection-stateful attack on exactly that: both ends of a
// connection keep an LRU of the last N matrices keyed by
// fingerprint.Hash, and a matrix the peer already holds travels as a
// 12-byte reference instead of a full packed form.
//
// A dictionary entry is a string (it rides the existing Packed /
// classify-batch slots of the JSON protocol) discriminated by its
// first byte:
//
//	'F' + PackDelta(f)              full form; both ends insert f
//	'R' + b64(Hash(f))              exact reference to a held matrix
//	'D' + b64(Hash(base)) + diffs   near match: per-cell zigzag-varint
//	                                differences against a held matrix
//	                                of the same shape (base64, like
//	                                PackDelta); both ends insert f
//
// Coherence is by construction, not by acknowledgement. Lines on one
// connection are strictly ordered, the encoder mutates its dictionary
// only for entries it actually sent (DictTxn commits after the request
// is marshalled), and the decoder applies the exact same
// insert/touch/evict sequence while decoding them — so the two LRUs
// evolve in lockstep without any wire overhead. A dictionary lives and
// dies with one connection incarnation: reconnecting builds a fresh
// pair on both sides (the lineconn generation IS the dictionary
// generation), and a decode failure is grounds for the server to sever
// the connection, forcing exactly that reset. Corrupt or
// out-of-sequence input makes DictTxn.Unpack error — never panic — and
// an uncommitted transaction leaves the dictionary untouched, so a
// poisoned batch cannot poison the state.
type Dict struct {
	cap     int
	entries map[uint64]*dictEntry
	// Intrusive LRU list; head is most recently used.
	head, tail *dictEntry
	// byRow indexes held matrices by the hash of their first row, the
	// encoder's near-match probe: a re-captured setup from the same
	// device model usually opens identically even when later packets
	// drift. Latest insert wins a first-row collision. The index is
	// maintained on both ends (it influences nothing on the decoder,
	// but symmetric maintenance keeps one code path).
	byRow map[uint64]uint64
}

type dictEntry struct {
	hash       uint64
	fp         *Fingerprint
	prev, next *dictEntry
}

// Entry format discriminators (first byte of a dictionary entry).
const (
	dictFull = 'F'
	dictRef  = 'R'
	dictDiff = 'D'
)

// hashEncLen is the fixed width of a hash inside 'R' and 'D' entries:
// the 8 big-endian bytes of a fingerprint hash, unpadded base64url.
const hashEncLen = 11

// NewDict builds an empty dictionary holding at most capacity matrices
// (capacities below 1 are clamped to 1).
func NewDict(capacity int) *Dict {
	if capacity < 1 {
		capacity = 1
	}
	return &Dict{
		cap:     capacity,
		entries: make(map[uint64]*dictEntry),
		byRow:   make(map[uint64]uint64),
	}
}

// Len reports the number of held matrices.
func (d *Dict) Len() int { return len(d.entries) }

// Cap reports the dictionary's capacity.
func (d *Dict) Cap() int { return d.cap }

func (d *Dict) unlink(e *dictEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		d.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		d.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (d *Dict) pushFront(e *dictEntry) {
	e.next = d.head
	if d.head != nil {
		d.head.prev = e
	}
	d.head = e
	if d.tail == nil {
		d.tail = e
	}
}

func (d *Dict) touch(e *dictEntry) {
	if d.head == e {
		return
	}
	d.unlink(e)
	d.pushFront(e)
}

func (d *Dict) index(h uint64, fp *Fingerprint) {
	if fp.Len() > 0 {
		d.byRow[rowHash(fp.At(0))] = h
	}
}

func (d *Dict) insert(h uint64, fp *Fingerprint) {
	if e := d.entries[h]; e != nil {
		e.fp = fp
		d.touch(e)
		d.index(h, fp)
		return
	}
	e := &dictEntry{hash: h, fp: fp}
	d.entries[h] = e
	d.pushFront(e)
	d.index(h, fp)
	for len(d.entries) > d.cap {
		old := d.tail
		d.unlink(old)
		delete(d.entries, old.hash)
		if old.fp.Len() > 0 {
			rh := rowHash(old.fp.At(0))
			if d.byRow[rh] == old.hash {
				delete(d.byRow, rh)
			}
		}
	}
}

// dictOp is one deferred dictionary mutation: a touch (fp nil) or an
// insert. Encoder and decoder log identical op sequences for identical
// entry sequences — that identity is the coherence invariant.
type dictOp struct {
	hash uint64
	fp   *Fingerprint
}

// DictTxn stages the dictionary effects of one request (one classify
// batch, or one discriminate line). Pack/Unpack record mutations against an
// overlay; Commit replays them onto the dictionary once the request is
// actually on its way. Dropping an uncommitted transaction aborts it:
// the dictionary is exactly as before, which is what keeps a failed
// marshal or a corrupt batch from desynchronizing the two ends.
type DictTxn struct {
	d       *Dict
	ops     []dictOp
	overlay map[uint64]*Fingerprint
	// rowOverlay mirrors byRow for matrices inserted by this
	// transaction, so later entries of one batch can diff against
	// earlier ones.
	rowOverlay map[uint64]uint64

	hits, misses, refBytes uint64
}

// Begin opens a transaction. Transactions must not interleave on one
// dictionary; callers serialize them per connection (lineconn encoders
// run under the connection mutex, server decoders on the read pump).
func (d *Dict) Begin() *DictTxn {
	return &DictTxn{d: d}
}

func (t *DictTxn) lookup(h uint64) *Fingerprint {
	if t.overlay != nil {
		if fp, ok := t.overlay[h]; ok {
			return fp
		}
	}
	if e := t.d.entries[h]; e != nil {
		return e.fp
	}
	return nil
}

func (t *DictTxn) touchOp(h uint64) {
	t.ops = append(t.ops, dictOp{hash: h})
}

func (t *DictTxn) insertOp(h uint64, fp *Fingerprint) {
	t.ops = append(t.ops, dictOp{hash: h, fp: fp})
	if t.overlay == nil {
		t.overlay = make(map[uint64]*Fingerprint)
	}
	t.overlay[h] = fp
	if fp.Len() > 0 {
		if t.rowOverlay == nil {
			t.rowOverlay = make(map[uint64]uint64)
		}
		t.rowOverlay[rowHash(fp.At(0))] = h
	}
}

// baseFor probes the first-row index for a same-shape near match to
// diff against.
func (t *DictTxn) baseFor(f *Fingerprint) (uint64, *Fingerprint) {
	if f.Len() == 0 {
		return 0, nil
	}
	rh := rowHash(f.At(0))
	h, ok := uint64(0), false
	if t.rowOverlay != nil {
		h, ok = t.rowOverlay[rh]
	}
	if !ok {
		if h, ok = t.d.byRow[rh]; !ok {
			return 0, nil
		}
	}
	base := t.lookup(h)
	if base == nil || base.Len() != f.Len() {
		return 0, nil
	}
	return h, base
}

// Pack encodes one fingerprint as a dictionary entry, staging the
// matching mutations. An exact hit (the peer holds a bit-equal matrix
// under this hash — Equal-verified, so a hash collision degrades to a
// full send instead of a wrong matrix) emits a reference; a first-row
// near match of the same shape emits a diff when it is actually
// smaller; everything else emits the full delta-packed form.
func (t *DictTxn) Pack(f *Fingerprint) (string, error) {
	if f == nil {
		return "", fmt.Errorf("encoding fingerprint report: nil fingerprint")
	}
	h := f.Hash()
	if cached := t.lookup(h); cached != nil && cached.Equal(f) {
		t.touchOp(h)
		t.hits++
		entry := string(dictRef) + formatHash(h)
		t.refBytes += uint64(len(entry))
		return entry, nil
	}
	full, err := PackDelta(f)
	if err != nil {
		return "", err
	}
	if bh, base := t.baseFor(f); base != nil {
		diff := string(dictDiff) + formatHash(bh) + packDiff(f, base)
		if len(diff) < len(full)+1 {
			t.touchOp(bh)
			t.insertOp(h, f)
			t.hits++
			t.refBytes += uint64(len(diff))
			return diff, nil
		}
	}
	t.insertOp(h, f)
	t.misses++
	return string(dictFull) + full, nil
}

// Unpack decodes one dictionary entry, staging the exact mutations the
// encoder staged when packing it. Corrupt input — unknown references,
// bad hex or base64, shape mismatches, truncated or overflowing
// varints, unknown discriminators — returns an error and never panics;
// the staged transaction is then simply dropped, leaving the
// dictionary unpoisoned.
func (t *DictTxn) Unpack(entry string) (*Fingerprint, error) {
	if entry == "" {
		return nil, fmt.Errorf("decoding dictionary entry: empty entry")
	}
	switch entry[0] {
	case dictRef:
		if len(entry) != 1+hashEncLen {
			return nil, fmt.Errorf("decoding dictionary entry: reference is %d bytes, want %d", len(entry), 1+hashEncLen)
		}
		h, err := parseHash(entry[1:])
		if err != nil {
			return nil, err
		}
		fp := t.lookup(h)
		if fp == nil {
			return nil, fmt.Errorf("decoding dictionary entry: reference to unknown matrix %016x (dictionaries out of sync)", h)
		}
		t.touchOp(h)
		t.hits++
		t.refBytes += uint64(len(entry))
		return fp, nil
	case dictDiff:
		if len(entry) < 1+hashEncLen {
			return nil, fmt.Errorf("decoding dictionary entry: truncated diff entry (%d bytes)", len(entry))
		}
		bh, err := parseHash(entry[1 : 1+hashEncLen])
		if err != nil {
			return nil, err
		}
		base := t.lookup(bh)
		if base == nil {
			return nil, fmt.Errorf("decoding dictionary entry: diff against unknown matrix %016x (dictionaries out of sync)", bh)
		}
		fp, err := unpackDiff(base, entry[1+hashEncLen:])
		if err != nil {
			return nil, err
		}
		t.touchOp(bh)
		t.insertOp(fp.Hash(), fp)
		t.hits++
		t.refBytes += uint64(len(entry))
		return fp, nil
	case dictFull:
		fp, err := UnpackDelta(entry[1:])
		if err != nil {
			return nil, err
		}
		t.insertOp(fp.Hash(), fp)
		t.misses++
		return fp, nil
	}
	return nil, fmt.Errorf("decoding dictionary entry: unknown entry discriminator %q", entry[0])
}

// Commit replays the staged mutations onto the dictionary, with LRU
// eviction past capacity. The overlay never evicts, so a batch larger
// than the capacity still decodes coherently — both ends resolve every
// intra-batch reference against the overlay and evict identically at
// commit.
func (t *DictTxn) Commit() {
	for _, op := range t.ops {
		if op.fp == nil {
			// A touch of an already-evicted matrix is a no-op — on both
			// ends, since the op logs match.
			if e := t.d.entries[op.hash]; e != nil {
				t.d.touch(e)
			}
			continue
		}
		t.d.insert(op.hash, op.fp)
	}
	t.ops, t.overlay, t.rowOverlay = nil, nil, nil
}

// Stats reports the transaction's encoder-side tallies: entries that
// rode a reference or diff (hits), entries sent in full (misses), and
// the byte length of the reference/diff entries.
func (t *DictTxn) Stats() (hits, misses, refBytes uint64) {
	return t.hits, t.misses, t.refBytes
}

// packDiff encodes f as per-cell differences against base (same shape,
// checked by the caller), zigzag varints base64-encoded like PackDelta.
func packDiff(f, base *Fingerprint) string {
	buf := make([]byte, 0, f.Len()*2)
	for i, v := range f.vectors {
		bv := base.vectors[i]
		for j, c := range v {
			d := c - bv[j]
			buf = binary.AppendUvarint(buf, uint64(uint32(d<<1)^uint32(d>>31)))
		}
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// unpackDiff inverts packDiff against the held base matrix.
func unpackDiff(base *Fingerprint, body string) (*Fingerprint, error) {
	raw, err := base64.StdEncoding.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("decoding dictionary entry: bad diff body: %w", err)
	}
	want := base.Len() * features.NumFeatures
	flat := make([]int32, 0, want)
	for len(raw) > 0 {
		u, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("decoding dictionary entry: truncated diff body")
		}
		raw = raw[n:]
		if u > 0xffffffff {
			return nil, fmt.Errorf("decoding dictionary entry: diff value overflows int32")
		}
		if len(flat) == want {
			return nil, fmt.Errorf("decoding dictionary entry: diff body longer than base matrix")
		}
		flat = append(flat, int32(uint32(u)>>1)^-int32(u&1))
	}
	if len(flat) != want {
		return nil, fmt.Errorf("decoding dictionary entry: diff body holds %d values, want %d", len(flat), want)
	}
	vs := make([]features.Vector, base.Len())
	for i := range vs {
		bv := base.vectors[i]
		for j := 0; j < features.NumFeatures; j++ {
			vs[i][j] = bv[j] + flat[i*features.NumFeatures+j]
		}
	}
	return FromVectors(vs), nil
}

// rowHash is the first-row probe key of the near-match index.
func rowHash(v features.Vector) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range v {
		binary.LittleEndian.PutUint32(buf[:], uint32(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func formatHash(h uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], h)
	return base64.RawURLEncoding.EncodeToString(b[:])
}

func parseHash(s string) (uint64, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(b) != 8 {
		return 0, fmt.Errorf("decoding dictionary entry: bad matrix hash %q", s)
	}
	return binary.BigEndian.Uint64(b), nil
}
