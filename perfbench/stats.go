package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: a tail percentile read from fewer samples is
// one or two outliers, not a distribution.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q of all
// samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile returns the q-quantile like percentile, but refuses
// it when fewer than minBeyond samples lie strictly after its rank.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, errors.New("no samples")
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if beyond := len(sorted) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", 100*q, len(sorted), beyond, minBeyond)
	}
	return percentile(sorted, q), nil
}

// median of unsorted samples (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally is the accounting of one timed run: every attempted op either
// completed, with its latency recorded, or failed. Refused submissions,
// flow and job errors and output-check mismatches are all failures.
type tally struct {
	attempted  int
	latencies  []float64 // ms, completed ops only
	failed     int
	mismatches int
}

func (t *tally) ok(d time.Duration) {
	t.attempted++
	t.latencies = append(t.latencies, float64(d)/float64(time.Millisecond))
}

// fail records a failed op; mismatch marks an output-check failure.
func (t *tally) fail(mismatch bool) {
	t.attempted++
	t.failed++
	if mismatch {
		t.mismatches++
	}
}

// lateMismatch fails an op that completed but whose output a check
// after the timed window rejected.
func (t *tally) lateMismatch() {
	t.failed++
	t.mismatches++
}

// successRate is the share of attempted ops that completed and passed
// their output checks (1 − error rate).
func (t *tally) successRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// latencyMetrics returns the median and the refusable 90th percentile.
func (t *tally) latencyMetrics() (p50, p90 float64, err error) {
	if len(t.latencies) == 0 {
		return 0, 0, errors.New("no completed ops")
	}
	s := append([]float64(nil), t.latencies...)
	sort.Float64s(s)
	p90, err = tailPercentile(s, 0.9)
	if err != nil {
		return 0, 0, fmt.Errorf("latency_p90_ms: %w", err)
	}
	return percentile(s, 0.5), p90, nil
}
