// Package metrics implements the four performance metrics of the paper's
// evaluation (§IV-A): Flow Set Coverage for flow record report, Average
// Relative Error for flow size estimation, Relative Error for cardinality
// estimation, and the F1 score (with size ARE) for heavy hitter detection.
package metrics

import (
	"math"

	"repro/flow"
)

// FSC computes Flow Set Coverage: the number of reported records whose flow
// ID is a real observed flow, divided by the number of true flows.
// Duplicate reports of the same key count once.
func FSC(reported []flow.Record, truth *flow.Truth) float64 {
	if truth.Flows() == 0 {
		return 0
	}
	seen := make(map[flow.Key]struct{}, len(reported))
	correct := 0
	for _, r := range reported {
		if _, dup := seen[r.Key]; dup {
			continue
		}
		seen[r.Key] = struct{}{}
		if truth.Contains(r.Key) {
			correct++
		}
	}
	return float64(correct) / float64(truth.Flows())
}

// SizeARE computes the Average Relative Error of flow size estimation over
// every true flow: mean |est/true − 1|. A flow the estimator knows nothing
// about (estimate 0) contributes an error of 1, per the paper's convention.
func SizeARE(estimate func(flow.Key) uint32, truth *flow.Truth) float64 {
	if truth.Flows() == 0 {
		return 0
	}
	var sum float64
	for _, rec := range truth.Records() {
		est := float64(estimate(rec.Key))
		real := float64(rec.Count)
		sum += math.Abs(est/real - 1)
	}
	return sum / float64(truth.Flows())
}

// CardinalityRE computes |estimated/true − 1|.
func CardinalityRE(estimated float64, truth *flow.Truth) float64 {
	n := truth.Flows()
	if n == 0 {
		return 0
	}
	return math.Abs(estimated/float64(n) - 1)
}

// HHReport scores heavy hitter detection.
type HHReport struct {
	// Reported is the number of heavy hitters the algorithm claimed.
	Reported int
	// Real is the number of true heavy hitters.
	Real int
	// Correct is the number of claimed heavy hitters that are real.
	Correct int
	// Precision is Correct/Reported, Recall is Correct/Real.
	Precision float64
	Recall    float64
	// F1 is the harmonic mean of precision and recall.
	F1 float64
	// SizeARE is the average relative size-estimation error over the
	// correctly detected heavy hitters.
	SizeARE float64
}

// HeavyHitters scores a reported record set against the ground truth at the
// given threshold. A flow is a true heavy hitter when its exact count is at
// least threshold; it is claimed when its reported count is at least
// threshold.
func HeavyHitters(reported []flow.Record, truth *flow.Truth, threshold uint32) HHReport {
	var rep HHReport

	claimed := make(map[flow.Key]uint32, len(reported))
	for _, r := range reported {
		if r.Count >= threshold {
			// Keep the largest claim if a key is reported twice.
			if c, ok := claimed[r.Key]; !ok || r.Count > c {
				claimed[r.Key] = r.Count
			}
		}
	}
	rep.Reported = len(claimed)

	var areSum float64
	for k, est := range claimed {
		real := truth.Count(k)
		if real >= threshold {
			rep.Correct++
			areSum += math.Abs(float64(est)/float64(real) - 1)
		}
	}
	rep.Real = len(truth.HeavyHitters(threshold))

	if rep.Reported > 0 {
		rep.Precision = float64(rep.Correct) / float64(rep.Reported)
	}
	if rep.Real > 0 {
		rep.Recall = float64(rep.Correct) / float64(rep.Real)
	}
	if rep.Precision+rep.Recall > 0 {
		rep.F1 = 2 * rep.Precision * rep.Recall / (rep.Precision + rep.Recall)
	}
	if rep.Correct > 0 {
		rep.SizeARE = areSum / float64(rep.Correct)
	}
	return rep
}
