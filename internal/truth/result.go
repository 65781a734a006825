package truth

import "fmt"

// Result is the output of a corroboration method: a probability and derived
// label per fact, and a trustworthiness score per source. Methods that do
// not estimate source trust (e.g. Voting) leave Trust nil.
type Result struct {
	// Method is the name of the algorithm that produced the result.
	Method string

	// FactProb[f] is the estimated probability that fact f is true.
	FactProb []float64

	// Predictions[f] is FactProb thresholded by Eq. 2. Facts with no votes
	// are predicted by the method's convention (usually true for prob 0.5
	// with the >= threshold).
	Predictions []Label

	// Trust[s] is the estimated trustworthiness of source s, or nil if the
	// method does not compute one.
	Trust []float64

	// Iterations is the number of fixpoint iterations or time points the
	// method used, when meaningful.
	Iterations int
}

// NewResult allocates a Result sized for the dataset with all probabilities
// at 0.5 and all predictions derived from them.
func NewResult(method string, d *Dataset) *Result {
	r := &Result{
		Method:      method,
		FactProb:    make([]float64, d.NumFacts()),
		Predictions: make([]Label, d.NumFacts()),
	}
	for f := range r.FactProb {
		r.FactProb[f] = 0.5
		r.Predictions[f] = True
	}
	return r
}

// Finalize recomputes Predictions from FactProb using the standard
// threshold. Call it after filling FactProb.
func (r *Result) Finalize() {
	if len(r.Predictions) != len(r.FactProb) {
		r.Predictions = make([]Label, len(r.FactProb))
	}
	for f, p := range r.FactProb {
		r.Predictions[f] = LabelOf(p, Threshold)
	}
}

// Check verifies that the result is shaped for dataset d and that all
// probabilities are finite and within [0, 1].
func (r *Result) Check(d *Dataset) error {
	if len(r.FactProb) != d.NumFacts() {
		return fmt.Errorf("truth: result has %d probabilities for %d facts", len(r.FactProb), d.NumFacts())
	}
	if len(r.Predictions) != d.NumFacts() {
		return fmt.Errorf("truth: result has %d predictions for %d facts", len(r.Predictions), d.NumFacts())
	}
	for f, p := range r.FactProb {
		if p < 0 || p > 1 || p != p {
			return fmt.Errorf("truth: fact %d probability %v out of range", f, p)
		}
	}
	if r.Trust != nil {
		if len(r.Trust) != d.NumSources() {
			return fmt.Errorf("truth: result has %d trust scores for %d sources", len(r.Trust), d.NumSources())
		}
		for s, t := range r.Trust {
			if t < 0 || t > 1 || t != t {
				return fmt.Errorf("truth: source %d trust %v out of range", s, t)
			}
		}
	}
	return nil
}
