package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Forest snapshot codec: a versioned, length-prefixed binary encoding
// of a trained forest's trees, so shard servers can load state instead
// of retraining. The trees serialize exactly (float64 thresholds and
// probabilities, internal-node probabilities included so a restored
// forest can still be leaf-capped); the flattened serving layout is
// rebuilt on restore from the caller's FlatConfig. Decoding validates
// every structural invariant — child indices strictly after their
// parent (traversal terminates), every node but the root the child of
// exactly one node (a tree, as ForestSet's leaf numbering needs),
// features within the caller's bound — and returns errors, never
// panics, on corrupt or truncated input.

// forestCodecVersion is the forest section's format version.
const forestCodecVersion = 1

// maxSnapshotNodes bounds a decoded tree's node count: far above any
// real CART tree on fingerprint-scale data, low enough that hostile
// length prefixes cannot drive huge allocations.
const maxSnapshotNodes = 1 << 22

// AppendForest appends a length-prefixed snapshot section encoding the
// forest's trained trees to buf and returns the extended slice.
func AppendForest(buf []byte, f *Forest) []byte {
	body := make([]byte, 0, 64*len(f.trees))
	body = binary.AppendUvarint(body, forestCodecVersion)
	body = binary.AppendUvarint(body, uint64(len(f.trees)))
	for _, t := range f.trees {
		body = binary.AppendUvarint(body, uint64(len(t.nodes)))
		for i := range t.nodes {
			nd := &t.nodes[i]
			// feature+1, so a leaf's -1 encodes as the one-byte 0.
			body = binary.AppendUvarint(body, uint64(nd.feature+1))
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(nd.prob))
			if nd.feature >= 0 {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(nd.threshold))
				body = binary.AppendUvarint(body, uint64(nd.left))
				body = binary.AppendUvarint(body, uint64(nd.right))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// DecodeForest decodes one forest section from the front of data,
// returning the restored forest and the remaining bytes. maxFeature
// bounds the split feature indices (the sample vector length predictions
// will index into); flat rebuilds the serving layout.
func DecodeForest(data []byte, maxFeature int, flat FlatConfig) (*Forest, []byte, error) {
	body, rest, err := section(data)
	if err != nil {
		return nil, nil, fmt.Errorf("ml: forest snapshot: %w", err)
	}
	ver, body, err := uvarint(body)
	if err != nil {
		return nil, nil, fmt.Errorf("ml: forest snapshot: version: %w", err)
	}
	if ver != forestCodecVersion {
		return nil, nil, fmt.Errorf("ml: forest snapshot: unsupported codec version %d", ver)
	}
	nTrees, body, err := uvarint(body)
	if err != nil {
		return nil, nil, fmt.Errorf("ml: forest snapshot: tree count: %w", err)
	}
	if nTrees == 0 || nTrees > maxSnapshotNodes {
		return nil, nil, fmt.Errorf("ml: forest snapshot: implausible tree count %d", nTrees)
	}
	f := &Forest{trees: make([]*Tree, nTrees)}
	for ti := range f.trees {
		var count uint64
		count, body, err = uvarint(body)
		if err != nil {
			return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node count: %w", ti, err)
		}
		if count == 0 || count > maxSnapshotNodes {
			return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d has implausible node count %d", ti, count)
		}
		t := &Tree{nodes: make([]node, count)}
		parented := make([]bool, count)
		for i := range t.nodes {
			nd := &t.nodes[i]
			var fp1 uint64
			fp1, body, err = uvarint(body)
			if err != nil {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d: %w", ti, i, err)
			}
			if fp1 > uint64(maxFeature) {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d feature %d out of range [0, %d)", ti, i, int64(fp1)-1, maxFeature)
			}
			nd.feature = int(fp1) - 1
			var bits uint64
			bits, body, err = fixed64(body)
			if err != nil {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d prob: %w", ti, i, err)
			}
			nd.prob = math.Float64frombits(bits)
			if nd.feature < 0 {
				continue
			}
			bits, body, err = fixed64(body)
			if err != nil {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d threshold: %w", ti, i, err)
			}
			nd.threshold = math.Float64frombits(bits)
			var l, r uint64
			l, body, err = uvarint(body)
			if err == nil {
				r, body, err = uvarint(body)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d children: %w", ti, i, err)
			}
			// Children strictly after the parent and inside the tree:
			// the induction order's invariant, and what guarantees a
			// restored tree's traversal terminates.
			if l <= uint64(i) || r <= uint64(i) || l >= count || r >= count || l == r || parented[l] || parented[r] {
				return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d has invalid children (%d, %d) of %d nodes", ti, i, l, r, count)
			}
			parented[l], parented[r] = true, true
			nd.left, nd.right = int32(l), int32(r)
		}
		if i := slices.Index(parented[1:], false); i >= 0 {
			return nil, nil, fmt.Errorf("ml: forest snapshot: tree %d node %d is unreachable", ti, i+1)
		}
		f.trees[ti] = t
	}
	if len(body) != 0 {
		return nil, nil, fmt.Errorf("ml: forest snapshot: %d trailing bytes in section", len(body))
	}
	f.flat = flatten(f.trees, flat)
	return f, rest, nil
}

// section splits a length-prefixed section off the front of data.
func section(data []byte) (body, rest []byte, err error) {
	n, data, err := uvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("section length: %w", err)
	}
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("section length %d exceeds %d remaining bytes", n, len(data))
	}
	return data[:n], data[n:], nil
}

// uvarint decodes one uvarint off the front of data.
func uvarint(data []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong uvarint")
	}
	return u, data[n:], nil
}

// fixed64 decodes one little-endian uint64 off the front of data.
func fixed64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("truncated 8-byte value")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}
