package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const tailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses a percentile with fewer than tailSamples
// samples beyond it, so a p99 is never read off a handful of requests.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	beyond := int(math.Floor(float64(n) * (100 - p) / 100))
	if beyond < tailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			p, n, beyond, tailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	return s[max(rank, 0)], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histQuantile estimates the q-quantile of a cumulative histogram (upper
// bounds les, cumulative counts cum, the last bound +Inf) by linear
// interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does. It returns 0 for an empty histogram.
func histQuantile(q float64, les []float64, cum []float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	lo, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(les[i], 1) {
				return lo // open-ended top bucket: report its lower bound
			}
			if c == prev {
				return les[i]
			}
			return lo + (les[i]-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = les[i], c
	}
	return lo
}
