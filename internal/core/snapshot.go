package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// Bank snapshot codec: a versioned, length-prefixed binary encoding of
// a trained bank's full identification state — enrolled types in
// enrolment order with their reference fingerprints and trained
// forests, retired drain tombstones, the version counter and the
// training ordinal. A restored bank answers every identification
// bit-identically to the source, and because classifier training
// derives its randomness from (seed, ordinal) rather than a consumed
// stream, its future enrolments are bit-identical too. Decoding
// validates every length and index and returns errors, never panics,
// on corrupt input (FuzzSnapshotRestore holds it to that).

// snapshotMagic heads every bank snapshot; snapshotVersion is the
// container format version.
const (
	snapshotMagic   = "SNTB"
	snapshotVersion = 1
)

// maxSnapshotItems bounds decoded type and print counts: far above any
// real deployment, low enough that hostile counts cannot drive huge
// allocations before the data runs out.
const maxSnapshotItems = 1 << 20

// Snapshot serializes the bank's trained state. The encoding is stable:
// two banks with identical state produce identical bytes, so banks
// compare bit-identical by comparing snapshots.
func (b *Bank) Snapshot() ([]byte, error) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	buf := []byte(snapshotMagic)
	buf = binary.AppendUvarint(buf, snapshotVersion)
	// Config digest: restoring under a different identification
	// configuration would silently fork the replica, so the load-bearing
	// knobs ride along and Restore rejects a mismatch.
	buf = binary.AppendUvarint(buf, uint64(b.cfg.FixedPackets))
	buf = binary.AppendUvarint(buf, uint64(b.cfg.Forest.Trees))
	buf = binary.AppendUvarint(buf, uint64(b.cfg.Seed))
	buf = binary.AppendUvarint(buf, b.enrolls)
	buf = binary.AppendUvarint(buf, b.version.Load())
	buf = binary.AppendUvarint(buf, uint64(len(b.types)))
	for _, tm := range b.types {
		buf = appendString(buf, tm.name)
		buf = appendPrints(buf, tm.prints)
		buf = ml.AppendForest(buf, tm.forest)
	}
	// Tombstones sort by name so the encoding never depends on map
	// iteration order.
	retired := make([]string, 0, len(b.retired))
	for name := range b.retired {
		retired = append(retired, name)
	}
	sortStrings(retired)
	buf = binary.AppendUvarint(buf, uint64(len(retired)))
	for _, name := range retired {
		buf = appendString(buf, name)
		buf = appendPrints(buf, b.retired[name].prints)
	}
	return buf, nil
}

// RestoreBank reconstructs a trained bank from a snapshot taken under
// the same configuration.
func RestoreBank(cfg Config, data []byte) (*Bank, error) {
	b := NewBank(cfg)
	if err := b.Restore(data); err != nil {
		return nil, err
	}
	return b, nil
}

// Restore replaces the bank's entire state with the snapshot's. The new
// state is parsed and validated off-lock and swapped in atomically, so
// concurrent identifications observe either the old bank or the new
// one, never a mix.
func (b *Bank) Restore(data []byte) error {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("core: bank snapshot: bad magic")
	}
	data = data[len(snapshotMagic):]
	ver, data, err := snapUvarint(data, "container version")
	if err != nil {
		return err
	}
	if ver != snapshotVersion {
		return fmt.Errorf("core: bank snapshot: unsupported version %d", ver)
	}
	for _, want := range []struct {
		name string
		v    uint64
	}{
		{"FixedPackets", uint64(b.cfg.FixedPackets)},
		{"Forest.Trees", uint64(b.cfg.Forest.Trees)},
		{"Seed", uint64(b.cfg.Seed)},
	} {
		var got uint64
		got, data, err = snapUvarint(data, want.name)
		if err != nil {
			return err
		}
		if got != want.v {
			return fmt.Errorf("core: bank snapshot: %s mismatch (snapshot %d, bank %d): restoring under a different config would fork the replica", want.name, got, want.v)
		}
	}
	enrolls, data, err := snapUvarint(data, "training ordinal")
	if err != nil {
		return err
	}
	version, data, err := snapUvarint(data, "version")
	if err != nil {
		return err
	}
	nTypes, data, err := snapUvarint(data, "type count")
	if err != nil {
		return err
	}
	if nTypes > maxSnapshotItems {
		return fmt.Errorf("core: bank snapshot: implausible type count %d", nTypes)
	}
	maxFeature := b.cfg.FixedPackets * features.NumFeatures
	types := make([]*typeModel, 0, nTypes)
	index := make(map[string]*typeModel, nTypes)
	for i := uint64(0); i < nTypes; i++ {
		var tm *typeModel
		tm, data, err = decodeTypeModel(data, b.cfg.FixedPackets)
		if err != nil {
			return fmt.Errorf("core: bank snapshot: type %d: %w", i, err)
		}
		if _, dup := index[tm.name]; dup {
			return fmt.Errorf("core: bank snapshot: type %q appears twice", tm.name)
		}
		tm.forest, data, err = ml.DecodeForest(data, maxFeature, b.cfg.Forest.Flat)
		if err != nil {
			return fmt.Errorf("core: bank snapshot: type %q: %w", tm.name, err)
		}
		types = append(types, tm)
		index[tm.name] = tm
	}
	nRetired, data, err := snapUvarint(data, "tombstone count")
	if err != nil {
		return err
	}
	if nRetired > maxSnapshotItems {
		return fmt.Errorf("core: bank snapshot: implausible tombstone count %d", nRetired)
	}
	retired := make(map[string]*typeModel, nRetired)
	for i := uint64(0); i < nRetired; i++ {
		var tm *typeModel
		tm, data, err = decodeTypeModel(data, 0)
		if err != nil {
			return fmt.Errorf("core: bank snapshot: tombstone %d: %w", i, err)
		}
		if _, dup := index[tm.name]; dup {
			return fmt.Errorf("core: bank snapshot: tombstone %q shadows an enrolled type", tm.name)
		}
		if _, dup := retired[tm.name]; dup {
			return fmt.Errorf("core: bank snapshot: tombstone %q appears twice", tm.name)
		}
		tm.fixed = nil
		retired[tm.name] = tm
	}
	if len(data) != 0 {
		return fmt.Errorf("core: bank snapshot: %d trailing bytes", len(data))
	}

	// Build the serving index and the reference alphabet off-lock like
	// the rest of the parsed state, so the swap below stays atomic with
	// respect to concurrent identifications.
	fused, minVotes, err := b.buildFused(types)
	if err != nil {
		return fmt.Errorf("core: bank snapshot: %w", err)
	}
	symbols := internAll(types, retired)

	b.rw.Lock()
	b.types, b.index, b.retired, b.enrolls = types, index, retired, enrolls
	b.fused, b.minVotes, b.symbols, b.symbolsAt = fused, minVotes, symbols, len(symbols)
	b.rw.Unlock()
	b.version.Store(version)
	return nil
}

// decodeTypeModel decodes a name + reference-print record. fixedPackets
// > 0 additionally precomputes the fixed-size training matrix (enrolled
// types need it, tombstones do not).
func decodeTypeModel(data []byte, fixedPackets int) (*typeModel, []byte, error) {
	name, data, err := snapString(data)
	if err != nil {
		return nil, nil, fmt.Errorf("name: %w", err)
	}
	nPrints, data, err := snapUvarint(data, "print count")
	if err != nil {
		return nil, nil, err
	}
	if nPrints == 0 || nPrints > maxSnapshotItems {
		return nil, nil, fmt.Errorf("implausible print count %d", nPrints)
	}
	tm := &typeModel{name: name, prints: make([]*fingerprint.Fingerprint, nPrints)}
	if fixedPackets > 0 {
		tm.fixed = make([][]float64, nPrints)
	}
	for i := range tm.prints {
		var blob []byte
		blob, data, err = snapBytes(data)
		if err != nil {
			return nil, nil, fmt.Errorf("print %d: %w", i, err)
		}
		tm.prints[i], err = fingerprint.DecodeBinary(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("print %d: %w", i, err)
		}
		if fixedPackets > 0 {
			tm.fixed[i] = tm.prints[i].FixedN(fixedPackets)
		}
	}
	return tm, data, nil
}

// appendPrints appends a count-prefixed list of length-prefixed
// fingerprint encodings.
func appendPrints(buf []byte, prints []*fingerprint.Fingerprint) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(prints)))
	for _, p := range prints {
		blob := fingerprint.AppendBinary(nil, p)
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// snapUvarint decodes one uvarint, labelling errors with what it was.
func snapUvarint(data []byte, what string) (uint64, []byte, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: bank snapshot: truncated %s", what)
	}
	return u, data[n:], nil
}

// snapBytes decodes one length-prefixed byte section.
func snapBytes(data []byte) ([]byte, []byte, error) {
	n, data, err := snapUvarint(data, "section length")
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("core: bank snapshot: section length %d exceeds %d remaining bytes", n, len(data))
	}
	return data[:n], data[n:], nil
}

// snapString decodes one length-prefixed string.
func snapString(data []byte) (string, []byte, error) {
	b, rest, err := snapBytes(data)
	if err != nil {
		return "", nil, err
	}
	if len(b) == 0 {
		return "", nil, fmt.Errorf("core: bank snapshot: empty name")
	}
	return string(b), rest, nil
}

// sortStrings sorts in place (a local helper so the codec file reads
// without the sort import noise at every call site).
func sortStrings(s []string) {
	if len(s) > 1 {
		sortSlice(s)
	}
}

func sortSlice(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SnapshotsEqual reports whether two snapshots encode identical bank
// state (a plain byte comparison — the encoding is canonical).
func SnapshotsEqual(a, b []byte) bool { return bytes.Equal(a, b) }
