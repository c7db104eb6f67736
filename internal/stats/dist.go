package stats

import (
	"math/rand/v2"
	"sort"
)

// Discrete draws values from an explicit (value, weight) table. It is used
// for the empirical packet-size and flow-size mixes derived from the
// production traces referenced by the paper [74].
type Discrete struct {
	values []int
	cum    []float64 // cumulative weights, last element == total
}

// NewDiscrete builds a sampler over values with matching positive weights.
func NewDiscrete(values []int, weights []float64) *Discrete {
	if len(values) == 0 || len(values) != len(weights) {
		panic("stats: NewDiscrete needs equal-length non-empty values/weights")
	}
	d := &Discrete{values: append([]int(nil), values...), cum: make([]float64, len(weights))}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic("stats: NewDiscrete weight must be non-negative")
		}
		total += w
		d.cum[i] = total
	}
	if total <= 0 {
		panic("stats: NewDiscrete needs positive total weight")
	}
	return d
}

// Sample draws one value.
func (d *Discrete) Sample(rng *rand.Rand) int {
	x := rng.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, x)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}

// Mean returns the expectation of the distribution.
func (d *Discrete) Mean() float64 {
	var sum, prev float64
	for i, v := range d.values {
		w := d.cum[i] - prev
		prev = d.cum[i]
		sum += float64(v) * w
	}
	return sum / d.cum[len(d.cum)-1]
}

// Values returns the support of the distribution.
func (d *Discrete) Values() []int { return append([]int(nil), d.values...) }

// EmpiricalCDF samples a continuous quantity from a piecewise-linear CDF
// given as knots (x, P(X<=x)). It is used for flow-size distributions where
// the paper's source [74] publishes CDF plots.
type EmpiricalCDF struct {
	xs []float64
	ps []float64
}

// NewEmpiricalCDF builds the sampler. ps must start >= 0, end at 1, and be
// nondecreasing; xs must be increasing.
func NewEmpiricalCDF(xs, ps []float64) *EmpiricalCDF {
	if len(xs) < 2 || len(xs) != len(ps) {
		panic("stats: NewEmpiricalCDF needs >=2 equal-length knots")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] || ps[i] < ps[i-1] {
			panic("stats: NewEmpiricalCDF knots must be increasing")
		}
	}
	if ps[len(ps)-1] != 1 {
		panic("stats: NewEmpiricalCDF must end at probability 1")
	}
	return &EmpiricalCDF{xs: append([]float64(nil), xs...), ps: append([]float64(nil), ps...)}
}

// Sample draws one value by inverse-transform sampling with linear
// interpolation between knots.
func (e *EmpiricalCDF) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(e.ps, u)
	if i == 0 {
		return e.xs[0]
	}
	if i >= len(e.ps) {
		return e.xs[len(e.xs)-1]
	}
	p0, p1 := e.ps[i-1], e.ps[i]
	x0, x1 := e.xs[i-1], e.xs[i]
	if p1 == p0 {
		return x1
	}
	return x0 + (x1-x0)*(u-p0)/(p1-p0)
}

// Mean estimates the distribution mean by trapezoidal integration of the
// inverse CDF.
func (e *EmpiricalCDF) Mean() float64 {
	var sum float64
	for i := 1; i < len(e.xs); i++ {
		sum += (e.ps[i] - e.ps[i-1]) * (e.xs[i] + e.xs[i-1]) / 2
	}
	return sum
}

// Exp draws from an exponential distribution with the given mean; used for
// Poisson arrival processes.
func Exp(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Permutation returns a random permutation of n elements with no fixed
// points (a derangement), used by the permutation traffic matrix so no host
// sends to itself.
func Permutation(rng *rand.Rand, n int) []int {
	if n < 2 {
		return make([]int, n)
	}
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}
