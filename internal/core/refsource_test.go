package core

import (
	"math/rand"
	"testing"
)

// TestLazySourceEqualsMathRand holds refSource to math/rand, the oracle
// it replays: for 3,000 seeds — 0, ±1, ±(2³¹−1), its multiples, the
// int64 extremes and seeded random ones of either sign — 700 draws each
// (past the 273 of the closed form) equal rand.NewSource's Int63 stream,
// and Perm and Int31n over one stream equal rand.Rand's.
func TestLazySourceEqualsMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max, int32max + 1, -int32max - 1, 89482311, 1<<63 - 1, -1 << 63}
	rng := rand.New(rand.NewSource(35))
	for len(seeds) < 3000 {
		s := rng.Int63()
		if rng.Intn(2) == 0 {
			s = -s
		}
		if rng.Intn(4) == 0 {
			s %= 1 << 32
		}
		seeds = append(seeds, s)
	}
	var src refSource
	perm := make([]int, 40)
	for _, seed := range seeds {
		want := rand.NewSource(seed)
		src.reset(seed)
		for k := range 700 {
			if got, w := src.int63(), want.Int63(); got != w {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, k, got, w)
			}
		}

		oracle := rand.New(rand.NewSource(seed))
		src.reset(seed)
		for k := 0; k < 30; k++ {
			n := 1 + k%len(perm)
			src.perm(perm[:n])
			for i, v := range oracle.Perm(n) {
				if perm[i] != v {
					t.Fatalf("seed %d: Perm(%d) #%d = %v, math/rand %v", seed, n, k, perm[:n], oracle.Perm(n))
				}
			}
			for _, m := range []int32{1, 2, 3, 7, 64, 1000, 1<<30 + 1, int32max} {
				if got, w := src.int31n(m), oracle.Int31n(m); got != w {
					t.Fatalf("seed %d: Int31n(%d) = %d, math/rand %d", seed, m, got, w)
				}
			}
		}
	}
}
