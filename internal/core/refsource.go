package core

import "math/rand"

// Stage two draws its reference prints from math/rand's additive lagged
// Fibonacci generator, seeded per fingerprint (see Bank.discriminateLocked).
// rand.NewSource(seed) pays for that seeding up front: 1,841 steps of a
// Lehmer generator to fill all 607 words of its state, some 20 µs and
// 5 KB per discrimination, when a discrimination draws a few dozen
// values. refSource produces the identical stream lazily.
//
// The source's k-th output is vec[333−k] + vec[606−k] (mod 2⁶⁴) while
// k < 273, since until then neither word has been overwritten, and each
// initial word is closed-form in the seed x:
//
//	vec[i] = cooked[i] ^ lcg(21+3i)<<40 ^ lcg(22+3i)<<20 ^ lcg(23+3i)
//
// where lcg(n) = x·48271ⁿ mod (2³¹−1) reads its power from a table and
// cooked is the generator's fixed table. So the first 273 draws cost a
// handful of multiplications each; a draw past them builds all 607
// words and continues the recurrence exactly as the source would.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap
	int32max = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 21 // Lehmer steps before the first word's first term
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1).
	lcgPow = func() (pow [lcgSkip + 3*rngLen]uint64) {
		pow[0] = 1
		for n := 1; n < len(pow); n++ {
			pow[n] = pow[n-1] * lcgMul % int32max
		}
		return pow
	}()

	// rngCooked is math/rand's fixed state table, recovered from the
	// first 607 outputs of a public source rather than copied: the
	// outputs determine the source's initial words (its recurrence runs
	// backwards), and a word XOR its seed's Lehmer terms is the table
	// entry.
	rngCooked = func() (cooked [rngLen]uint64) {
		const seed = 1
		src := rand.NewSource(seed).(rand.Source64)
		// y[m] is the word the source's m-th step overwrites, so
		// y[m+607] = y[m] + y[m+334] and output k is y[k+607].
		var y [2 * rngLen]uint64
		for k := 0; k < rngLen; k++ {
			y[k+rngLen] = src.Uint64()
		}
		for n := 2*rngLen - 1; n >= rngLen; n-- {
			y[n-rngLen] = y[n] - y[n-rngTap]
		}
		// The m-th step overwrites word (333 − m) mod 607.
		for m := 0; m < rngLen; m++ {
			i := (rngFeed - 1 - m + rngLen) % rngLen
			cooked[i] = y[m] ^ lcgTerms(seed, i)
		}
		return cooked
	}()
)

// lcgTerms returns the Lehmer terms seed word i of the source started
// from the normalized seed x.
func lcgTerms(x uint64, i int) uint64 {
	n := lcgSkip + 3*i
	return x*lcgPow[n]%int32max<<40 ^ x*lcgPow[n+1]%int32max<<20 ^ x*lcgPow[n+2]%int32max
}

// refSource replays rand.NewSource(seed) draw for draw. The zero value
// is unusable; reset seeds it. It lives in per-goroutine scratch, so the
// 607-word state it builds past the 273rd draw is allocated once per
// scratch, not per draw.
type refSource struct {
	x         uint64 // the Lehmer seed: seed mod (2³¹−1), 0 mapped as math/rand maps it
	drawn     int    // values drawn so far
	full      bool   // vec holds the live state; tap and feed index it
	tap, feed int
	vec       *[rngLen]uint64
}

// reset seeds the source exactly as rand.NewSource(seed) is seeded.
func (s *refSource) reset(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x, s.drawn, s.full = uint64(seed), 0, false
}

// word returns initial state word i.
func (s *refSource) word(i int) uint64 { return rngCooked[i] ^ lcgTerms(s.x, i) }

// int63 returns the next value of rand.Source.Int63.
func (s *refSource) int63() int64 {
	var u uint64
	if !s.full && s.drawn < rngTap {
		u = s.word(rngFeed-1-s.drawn) + s.word(rngLen-1-s.drawn)
	} else {
		if !s.full {
			s.materialize()
		}
		u = s.step()
	}
	s.drawn++
	return int64(u &^ (1 << 63))
}

// materialize builds the full state and replays the steps already
// drawn in closed form, leaving tap and feed where the source's would be.
func (s *refSource) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	s.tap, s.feed = 0, rngFeed
	for range s.drawn {
		s.step()
	}
	s.full = true
}

// step advances the built state one draw, as rngSource.Uint64 does, and
// returns the drawn word.
func (s *refSource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	s.vec[s.feed] += s.vec[s.tap]
	return s.vec[s.feed]
}

// int31n is rand.Rand.Int31n.
func (s *refSource) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.int63() >> 32)
	for v > max {
		v = int32(s.int63() >> 32)
	}
	return v % n
}

// perm fills m with rand.Rand.Perm(len(m)) (whose Intn is Int31n for
// every length a slice can hold here).
func (s *refSource) perm(m []int) {
	for i := range m {
		j := s.int31n(int32(i + 1))
		m[i] = m[j]
		m[j] = i
	}
}
