package sim

import (
	"math"
	"math/rand"
	"testing"
)

// draws per seed: more than three trips of feed and tap round the
// 607-word register, so wrapped reads of rewritten words are covered.
const lazyDraws = 3*rngLen + 11

func lazySeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, -89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, -(1 << 31), 1<<31 + 1, 1 << 62}
	for k := int64(-3); k <= 3; k++ {
		seeds = append(seeds, k*int32max, k*int32max+1, k*int32max-1)
	}
	r := rand.New(rand.NewSource(20150314))
	for len(seeds) < 2100 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, r.Int63())
		case 1:
			seeds = append(seeds, -r.Int63())
		default:
			seeds = append(seeds, int64(r.Int31n(1<<20))-1<<19)
		}
	}
	return seeds
}

func sameStream(t *testing.T, s *lazySource, seed int64) {
	t.Helper()
	ref := rand.NewSource(seed)
	for k := 0; k < lazyDraws; k++ {
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d draw %d: Int63 = %d, math/rand gives %d", seed, k, got, want)
		}
	}
}

// TestLazySourceMatchesMathRand checks the lazily seeded source against
// rand.NewSource draw for draw: a fresh source per seed, one source reseeded
// for every seed (stale words from the previous seed must never be read),
// and a reseed across a wrap of the generation counter.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := lazySeeds()
	for _, seed := range seeds {
		sameStream(t, newLazySource(seed), seed)
	}
	reused := newLazySource(0)
	for _, seed := range seeds {
		reused.Seed(seed)
		sameStream(t, reused, seed)
	}
	// A partly drawn stream reseeded to the same seed restarts it.
	reused.Seed(42)
	reused.Int63()
	reused.Seed(42)
	sameStream(t, reused, 42)

	wrap := newLazySource(7)
	sameStream(t, wrap, 7)
	wrap.gen = math.MaxUint16 - 1
	// gen = MaxUint16: the words seed 7 marked at gen 1 read as stale.
	// Drawing only a few values leaves most of those marks in place.
	wrap.Seed(8)
	ref := rand.NewSource(8)
	for k := 0; k < 5; k++ {
		if got, want := wrap.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed 8 draw %d: Int63 = %d, math/rand gives %d", k, got, want)
		}
	}
	// gen wraps round to 1, the mark seed 7 left on its words: without
	// the clear on wrap they would read as current.
	wrap.Seed(9)
	if wrap.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", wrap.gen)
	}
	sameStream(t, wrap, 9)
}

// TestLazySourceThroughRand checks the Float64 and Intn draws the
// simulator makes, through rand.Rand, against rand.NewSource.
func TestLazySourceThroughRand(t *testing.T) {
	src := newLazySource(0)
	lazy := rand.New(src)
	for seed := int64(-50); seed < 50; seed++ {
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			if a, b := lazy.Float64(), ref.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, k, a, b)
			}
			if a, b := lazy.Intn(k+1), ref.Intn(k+1); a != b {
				t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, k, a, b)
			}
		}
	}
}

func BenchmarkLazySeed(b *testing.B) {
	src := newLazySource(0)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for k := 0; k < 40; k++ {
			src.Int63()
		}
	}
}
