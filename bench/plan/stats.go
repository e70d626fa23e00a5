package plan

import (
	"math"
	"sort"
)

// Median returns the middle of the samples (the mean of the two middle ones
// for an even count), 0 for none. Samples are kept exactly — no buckets — so
// a percentile is always one of the measured values or a mean of two.
func Median(samples []float64) float64 {
	s := sorted(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p percent of the samples at or below it.
func Percentile(samples []float64, p float64) float64 {
	s := sorted(samples)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Spread is the distance between the first and third quartile as a share of
// the median — the run-to-run noise measure the bounds are judged against.
// It needs at least four values; fewer give 0.
func Spread(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	med := Median(s)
	if n < 4 || med == 0 {
		return 0
	}
	// The exclusive method, as Python's statistics.quantiles(n=4) computes it.
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// QuietShare is the share of a run's windows, in percent, that the quiet
// statistics rest on.
const QuietShare = 10

// QuietLow is the lower decile (nearest rank) of the per-window values of a
// lower-is-better measure; with fewer than ten windows it is the best one. A
// run is cut into windows of a second or so, each window gives its own
// median, and the run reports the decile of those medians on the good side.
// What the shared host's neighbours do to a run only ever adds time, for
// seconds or tens of seconds at a stretch, so the quietest tenth of the
// windows is the nearest a run gets to the program's own speed, where the
// median of the whole run follows the share of it that happened to be
// disturbed. The price: a change that slows only some stretches of a run
// does not show here; the whole-run figures (a note of every run, and the
// traced run's e2e.* metrics) are where it does.
func QuietLow(windows []float64) float64 { return Percentile(windows, QuietShare) }

// QuietHigh is QuietLow for a higher-is-better measure: the upper decile.
func QuietHigh(windows []float64) float64 {
	neg := make([]float64, len(windows))
	for i, v := range windows {
		neg[i] = -v
	}
	return -Percentile(neg, QuietShare)
}
