package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zipfCases are every skew the repository ships — TPC-C 1.15, sysbench
// 1.08, the production capture windows 1.10 and 1.22, the drift stream's
// clamp bounds 1.01 and 2.5, and the 1.0001 clamp of a skew at or below 1
// — at the simulated page count and the row count of the workload each
// belongs to (the clamps at TPC-C's).
var zipfCases = []struct {
	name string
	s    float64
	n    []uint64
}{
	{"tpcc", 1.15, []uint64{65308, 25050550}},
	{"sysbench", 1.08, []uint64{65536, 64000000}},
	{"production-9am", 1.10, []uint64{65536, 1600000000}},
	{"production-9pm", 1.22, []uint64{65536, 1600000000}},
	{"drift-min", 1.01, []uint64{65308, 25050550}},
	{"drift-max", 2.5, []uint64{65308, 25050550}},
	{"clamp", 1.0001, []uint64{65308, 25050550}},
}

// zipfEquivDraws is how many draws per (skew, n) must equal math/rand's.
const zipfEquivDraws = 10_000_000

// TestZipfMatchesMathRand requires the tabled sampler to return exactly
// math/rand's Zipf variate on every draw from the same seed.
func TestZipfMatchesMathRand(t *testing.T) {
	for _, c := range zipfCases {
		for _, n := range c.n {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				t.Parallel()
				seed := int64(n) ^ int64(math.Float64bits(c.s))
				ref := rand.NewZipf(NewRNG(seed).Rand, c.s, 1, n-1)
				z := NewZipfTable(c.s, n).Sampler(NewRNG(seed))
				for i := 0; i < zipfEquivDraws; i++ {
					if got, want := z.Next(), ref.Uint64(); got != want {
						t.Fatalf("draw %d: got %d, math/rand %d", i, got, want)
					}
				}
			})
		}
	}
}

// TestZipfTablelessMatchesMathRand covers the sampler without a guide
// table, which every draw takes through the copied formulas.
func TestZipfTablelessMatchesMathRand(t *testing.T) {
	for _, s := range []float64{0.5, 1.0001, 1.1, 1.3, 2.5} {
		ref := rand.NewZipf(NewRNG(5).Rand, math.Max(s, 1.0001), 1, 9999)
		z := NewZipf(NewRNG(5), s, 10000)
		for i := 0; i < 100000; i++ {
			if got, want := z.Next(), ref.Uint64(); got != want {
				t.Fatalf("s=%g draw %d: got %d, math/rand %d", s, i, got, want)
			}
		}
	}
}

// TestZipfTableBucketBoundaries runs the formulas at the first float of
// every tabled bucket and at the last float below the next bucket, and
// requires both to give the bucket's key on the first acceptance test.
func TestZipfTableBucketBoundaries(t *testing.T) {
	for _, c := range zipfCases {
		for _, n := range c.n {
			z := NewZipfTable(c.s, n)
			if z.guide == nil {
				t.Fatalf("%s n=%d: no guide table", c.name, n)
			}
			tabled := 0
			for i, k := range z.guide {
				if k < 0 {
					continue
				}
				tabled++
				lo := float64(i) / zipfBuckets
				hi := math.Nextafter(float64(i+1)/zipfBuckets, 0)
				for _, r := range []float64{lo, hi} {
					ur := z.hxm + r*z.hx0minusHxm
					x := z.hinv(ur)
					if got := math.Floor(x + 0.5); got != float64(k) || got-x > z.s {
						t.Fatalf("%s n=%d bucket %d r=%v: formulas give x=%v (key %v), table %d",
							c.name, n, i, r, x, got, k)
					}
				}
			}
			if tabled == 0 {
				t.Fatalf("%s n=%d: no bucket tabled", c.name, n)
			}
		}
	}
}

// TestZipfTableSkipsFlatSkews checks that exponents too close to 1 for the
// margin get no guide table.
func TestZipfTableSkipsFlatSkews(t *testing.T) {
	if z := NewZipfTable(1.00001, 1000); z.guide != nil {
		t.Fatal("skew 1.00001 was tabled")
	}
}

var zipfSink uint64

// BenchmarkZipfNext compares a draw through the formulas alone with a
// draw through the guide table, at each workload's page count.
func BenchmarkZipfNext(b *testing.B) {
	for _, c := range zipfCases[:4] {
		n := c.n[0]
		b.Run(c.name+"/exact", func(b *testing.B) {
			z := NewZipf(NewRNG(1), c.s, n)
			for i := 0; i < b.N; i++ {
				zipfSink += z.Next()
			}
		})
		b.Run(c.name+"/tabled", func(b *testing.B) {
			z := NewZipfTable(c.s, n).Sampler(NewRNG(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zipfSink += z.Next()
			}
		})
	}
}
