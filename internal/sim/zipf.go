package sim

import (
	"math"
	"math/rand"
)

// Zipf draws keys in [0, n) with Zipfian skew s (>1 means skewed; the
// common OLTP benchmark setting is around 1.1–1.3). It is used by the
// workload generators to model hot rows, which in turn drives buffer-pool
// hit ratios and lock contention in the simulated engine.
//
// Every draw equals math/rand's Zipf(s, 1, n-1) on the same RNG: the
// sampler is math/rand's rejection-inversion, copied expression for
// expression (so the compiler contracts the same multiply-adds into FMAs
// on every architecture), and a guide table built by NewZipfTable only
// short-cuts draws whose result the formulas would give anyway.
type Zipf struct {
	r *rand.Rand
	t *ZipfTable
}

// zipfBuckets is the guide table's size: bucket i covers the uniform
// draws r in [i/zipfBuckets, (i+1)/zipfBuckets).
const zipfBuckets = 1 << 12

// zipfMargin is the relative distance a bucket's image must keep from a
// rounding or acceptance boundary to be tabled. The formulas' evaluation
// error grows as 1/(s-1) and stays below 1e-11 relative while s-1 is at
// least zipfMinTabled, so flatter exponents get no guide table.
const (
	zipfMargin    = 1e-9
	zipfMinTabled = 5e-5
)

// ZipfTable is the per-(skew, key count) part of a Zipf sampler: the
// rejection-inversion constants and, when built by NewZipfTable, the guide
// table. It is immutable, so any number of samplers may share it.
type ZipfTable struct {
	n            uint64
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// guide[i] is the key every draw in bucket i returns from the first
	// acceptance test, or -1 where the formulas must run. Nil for a
	// table-less sampler.
	guide []int32
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s (must be >1)
// that runs the rejection-inversion formulas on every draw. Samplers that
// draw many keys from one (s, n) should share a NewZipfTable instead.
func NewZipf(r *RNG, s float64, n uint64) *Zipf {
	return &Zipf{r: r.Rand, t: newZipfConsts(s, n)}
}

// NewZipfTable builds the shared state of Zipf samplers over [0, n) with
// exponent s, including a guide table over the uniform draw. A bucket of
// draws whose images x all round to one key k and pass the first
// acceptance test (k - x <= s) with a margin of zipfMargin·(|x|+1) maps
// to k; every other bucket falls back to the formulas. The inverse
// hinv(hxm + r·hx0minusHxm) is monotone in r and the computed value
// strays from it by far less than the margin, so every draw inside a
// tabled bucket lands between the endpoints' images widened by the margin
// and the formulas would have returned k on the same draw.
func NewZipfTable(s float64, n uint64) *ZipfTable {
	z := newZipfConsts(s, n)
	if -z.oneminusQ < zipfMinTabled {
		return z
	}
	z.guide = make([]int32, zipfBuckets)
	xHi := z.x(0)
	for i := range z.guide {
		xLo := z.x(float64(i+1) / zipfBuckets)
		z.guide[i] = z.bucketKey(xLo, xHi)
		xHi = xLo
	}
	return z
}

// Sampler returns a Zipf sampler over the table drawing from r.
func (z *ZipfTable) Sampler(r *RNG) *Zipf { return &Zipf{r: r.Rand, t: z} }

// newZipfConsts sets up math/rand's rejection-inversion constants for
// NewZipf(r, s, 1, n-1), clamping s into the valid range.
func newZipfConsts(s float64, n uint64) *ZipfTable {
	if s <= 1 {
		s = 1.0001
	}
	z := &ZipfTable{n: n}
	z.imax = float64(n - 1)
	z.v = 1
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *ZipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *ZipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// x is the continuous inverse image of the uniform draw r.
func (z *ZipfTable) x(r float64) float64 {
	ur := z.hxm + r*z.hx0minusHxm
	return z.hinv(ur)
}

// bucketKey returns the key of a bucket whose images span [xLo, xHi], or
// -1 when some draw in it could round to another key or need the second
// acceptance test.
func (z *ZipfTable) bucketKey(xLo, xHi float64) int32 {
	m := zipfMargin * (math.Max(math.Abs(xLo), math.Abs(xHi)) + 1)
	k := math.Floor(xHi + m + 0.5)
	if math.Floor(xLo-m+0.5) != k || k-(xLo-m) > z.s || k < 0 || k > z.imax || k > math.MaxInt32 {
		return -1
	}
	return int32(k)
}

// exact is one iteration of math/rand's loop on the uniform draw r: the
// key and whether it was accepted.
func (z *ZipfTable) exact(r float64) (uint64, bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return uint64(k), true
	}
	return 0, false
}

// Next returns the next key.
func (z *Zipf) Next() uint64 {
	t := z.t
	for {
		r := z.r.Float64() // r on [0,1]
		if t.guide != nil {
			if k := t.guide[int(r*zipfBuckets)]; k >= 0 {
				return uint64(k)
			}
		}
		if k, ok := t.exact(r); ok {
			return k
		}
	}
}

// N returns the key-space size.
func (z *Zipf) N() uint64 { return z.t.n }
