package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the simulator and the learning
// algorithms need. Every component in the repository receives its RNG from
// its caller (seeded at the session boundary) so runs are reproducible.
//
// The underlying source is gfsrSource, a bit-exact clone of math/rand's
// default source with exportable state, so a checkpointed session can
// restore every stream mid-sequence (see State and SetState).
type RNG struct {
	*rand.Rand
	src *gfsrSource
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	src := newGFSR(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// RNGState is the complete serializable state of an RNG stream: the lagged
// Fibonacci vector plus the two rolling indices.
type RNGState struct {
	Vec       []int64
	Tap, Feed int
}

// State exports the full generator state. Restoring it with SetState on any
// RNG continues the stream exactly where this one stands.
func (r *RNG) State() RNGState { return r.src.state() }

// SetState reinstates a state captured by State. The RNG's subsequent
// output is identical to the captured stream's continuation. Invalid states
// are rejected without modifying the RNG.
func (r *RNG) SetState(st RNGState) error { return r.src.setState(st) }

type errBadRNGState int

func (e errBadRNGState) Error() string {
	return fmt.Sprintf("sim: RNG state has %d vector words, want %d", int(e), gfsrLen)
}

type errBadRNGPos struct{ tap, feed int }

func (e errBadRNGPos) Error() string {
	return fmt.Sprintf("sim: RNG state indices tap=%d feed=%d out of range [0,%d)", e.tap, e.feed, gfsrLen)
}

// Fork derives an independent child RNG. Children are used when work fans
// out to parallel actors so each actor's stream is stable regardless of
// scheduling order.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Int63())
}

// Gaussian returns a normally distributed sample with the given mean and
// standard deviation.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Uniform returns a sample uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}
