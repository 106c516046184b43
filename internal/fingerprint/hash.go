package fingerprint

// FNV-1a 64-bit parameters (the offset basis and prime hash/fnv uses).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a canonical 64-bit FNV-1a hash of the variable-length
// fingerprint F. Two fingerprints with identical packet sequences hash
// identically, regardless of how they were constructed, so the hash can
// key deterministic derivations (reference sampling in the
// discrimination stage, dictionary entries on the shard wire). It is
// unkeyed, so it must not key anything a remote peer can aim
// collisions at: the IoT Security Service keys its verdict cache with
// a per-service seeded hash of AppendBinary instead.
//
// The hash folds every component of every feature vector in sequence
// order as little-endian uint32s; it is not a cryptographic digest, but
// at 64 bits accidental collisions between the fingerprints a deployment
// observes are negligible. The FNV-1a loop is inlined: hash/fnv's
// per-element Write calls cost more than the folding itself.
func (f *Fingerprint) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range f.vectors {
		for _, c := range v {
			u := uint32(c)
			h = (h ^ uint64(u&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>8&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>16&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>24)) * fnvPrime64
		}
	}
	return h
}

// Mix64 finalizes a 64-bit value with the splitmix64 avalanche function:
// every input bit flips each output bit with probability ~1/2. Hash
// consumers that derive keys from structured values (ring points for
// consistent hashing, shard-version stamps on cached verdicts) mix them
// so that near-identical inputs land far apart.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CombineHash folds b into the running hash a. It is the canonical way
// to extend Hash-derived keys with extra dimensions (a backend's
// virtual-node index, a shard version) without inventing ad-hoc mixing
// at every call site.
func CombineHash(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b))
}

// HashString hashes an arbitrary string (device MACs, backend
// addresses) into the same 64-bit FNV-1a space as Hash.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
