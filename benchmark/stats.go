package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantile sorts a copy of v and returns its p-quantile.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// sample is one completed operation: when it was due (open loop) or sent
// (closed loop) relative to the start of its phase, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// segmentQuantiles splits samples into segs equal slices of window by their
// at time, takes each quantile in ps inside every segment, and returns per
// quantile the median over the segments plus the smallest segment's sample
// count. A whole-window p99 is set by the one worst stall of the run; the
// median of per-segment p99s is not, which is what makes a tail repeatable.
func segmentQuantiles(samples []sample, window time.Duration, segs int, ps ...float64) (vals []float64, minCount int) {
	parts := make([][]float64, segs)
	for _, s := range samples {
		k := int(int64(s.at) * int64(segs) / int64(window))
		if k < 0 {
			k = 0
		}
		if k >= segs {
			k = segs - 1
		}
		parts[k] = append(parts[k], millis(s.lat))
	}
	minCount = -1
	for _, p := range parts {
		sort.Float64s(p)
		if minCount < 0 || len(p) < minCount {
			minCount = len(p)
		}
	}
	vals = make([]float64, len(ps))
	for i, p := range ps {
		per := make([]float64, segs)
		for k := range parts {
			per[k] = percentile(parts[k], p)
		}
		vals[i] = median(per)
	}
	return vals, minCount
}
