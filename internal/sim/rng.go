package sim

import "math"

// RNG is a splitmix64 pseudo-random generator. It is small, fast, has no
// shared state, and gives identical streams across platforms, which keeps
// workload traces reproducible. The zero value is a valid generator
// seeded with 0; use NewRNG to seed explicitly.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Pick returns an index drawn from the discrete distribution weights.
// Weights need not sum to 1; non-positive totals return 0.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf returns a value in [0, n) drawn from a Zipf-like distribution with
// exponent s (s = 0 is uniform; larger s is more skewed), used to model
// hot-page access skew in synthetic workloads.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	i := int(math.Pow(r.Float64(), 1+s) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// Geo is a geometric distribution on {0,1,2,...} with a given mean,
// drawn by RNG.Geometric. NewGeo takes the logarithm its inverse CDF
// divides by once, so a draw costs one logarithm.
type Geo struct {
	logQ  float64 // math.Log(1-p), p = 1/(1+mean)
	draws bool    // false: mean <= 0, every draw is 0 and uses no randomness
}

// NewGeo returns the geometric distribution with mean approximately
// mean. A mean <= 0 always draws 0.
func NewGeo(mean float64) Geo {
	if mean <= 0 {
		return Geo{}
	}
	p := 1 / (1 + mean)
	return Geo{logQ: math.Log(1 - p), draws: true}
}

// Geometric returns a non-negative value drawn from g. Used for gap
// lengths between memory operations.
func (r *RNG) Geometric(g Geo) int {
	if !g.draws {
		return 0
	}
	u := r.Float64()
	// Inverse CDF of the geometric distribution on {0,1,2,...}.
	n := int(math.Log(1-u) / g.logQ)
	if n < 0 {
		n = 0
	}
	return n
}
