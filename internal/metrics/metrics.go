// Package metrics implements the evaluation measures of Wu & Marian
// (EDBT 2014, §6.1.2): precision, recall, accuracy and F1 over a golden set,
// the mean square error of estimated source trust scores (Eq. 10), the
// error-count metric used for the Hubdub comparison (Table 7), and a paired
// permutation test for the significance claims of §6.2.2.
//
// Throughout, the positive class is "fact is true", matching the paper: a
// true positive is a genuinely true fact predicted true.
package metrics

import (
	"fmt"
	"math"

	"corroborate/internal/truth"
)

// Confusion is a 2x2 confusion matrix over the evaluated facts.
type Confusion struct {
	TP, FP, TN, FN int
}

// Evaluated returns the number of facts that contributed to the matrix.
func (c Confusion) Evaluated() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP / (TP + FP); 0 when nothing was predicted true.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); 0 when there are no true facts.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy is (TP + TN) / evaluated; 0 when nothing was evaluated.
func (c Confusion) Accuracy() float64 {
	n := c.Evaluated()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Errors is FP + FN, the metric of Galland et al. used for Table 7.
func (c Confusion) Errors() int { return c.FP + c.FN }

// String renders the matrix compactly for logs.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d", c.TP, c.FP, c.TN, c.FN)
}

// Confuse builds the confusion matrix of a result over the dataset's golden
// evaluation set (falling back to all labeled facts, per Dataset.Golden).
// It walks the golden set through Dataset.EachGolden, so it allocates O(1)
// regardless of golden-set size (an AllocsPerRun ceiling in
// metrics_test.go keeps it that way).
func Confuse(d *truth.Dataset, r *truth.Result) Confusion {
	var c Confusion
	d.EachGolden(func(f int) bool {
		label := d.Label(f)
		if label == truth.Unknown {
			return true
		}
		pred := r.Predictions[f]
		switch {
		case label == truth.True && pred == truth.True:
			c.TP++
		case label == truth.True && pred == truth.False:
			c.FN++
		case label == truth.False && pred == truth.True:
			c.FP++
		case label == truth.False && pred == truth.False:
			c.TN++
		}
		return true
	})
	return c
}

// Report bundles the four headline numbers of Table 4 for one method.
type Report struct {
	Method    string
	Confusion Confusion
	Precision float64
	Recall    float64
	Accuracy  float64
	F1        float64
}

// Evaluate computes a Report for the result over the dataset's golden set.
func Evaluate(d *truth.Dataset, r *truth.Result) Report {
	c := Confuse(d, r)
	return Report{
		Method:    r.Method,
		Confusion: c,
		Precision: c.Precision(),
		Recall:    c.Recall(),
		Accuracy:  c.Accuracy(),
		F1:        c.F1(),
	}
}

// TrustMSE is the mean square error of estimated trust scores against the
// reference trust vector (Eq. 10). Sources with no reference signal
// (reference NaN) are skipped. It returns 0 when estimated is nil.
func TrustMSE(reference, estimated []float64) float64 {
	if estimated == nil {
		return 0
	}
	if len(reference) != len(estimated) {
		panic(fmt.Sprintf("metrics: %d reference trust scores vs %d estimated", len(reference), len(estimated)))
	}
	var sum float64
	n := 0
	for i, ref := range reference {
		if math.IsNaN(ref) {
			continue
		}
		diff := ref - estimated[i]
		sum += diff * diff
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
