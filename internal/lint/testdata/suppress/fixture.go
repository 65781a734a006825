// Package fixture exercises the //lint:ignore machinery: well-formed
// directives silence findings (line-above and trailing forms, multiple
// analyzers per directive), malformed ones and ones naming an unknown
// analyzer are themselves reported.
package fixture

import "math"

// suppressedLog carries a line-above directive with a reason: silenced.
func suppressedLog(x float64) float64 {
	//lint:ignore logguard fixture: the reason is given, so this is silenced
	return math.Log(x)
}

// trailing carries the directive on the offending line itself: silenced.
func trailing(a, b float64) bool {
	return a == b //lint:ignore floatexact fixture: trailing form
}

// multi silences two analyzers with one comma-separated directive.
func multi(a, b float64) bool {
	//lint:ignore floatexact,logguard fixture: both findings on this line are silenced
	return a/b == math.Log(b)
}

// multiTrailing silences two analyzers with one comma-separated directive
// in TRAILING position — the regression case for the matcher honoring
// every name of a trailing list, not just the first.
func multiTrailing(a, b float64) bool {
	return a/b == math.Log(b) //lint:ignore floatexact,logguard fixture: trailing multi-analyzer list
}

// multiSloppy writes the list with a space after the comma; both names are
// still honored.
func multiSloppy(a, b float64) bool {
	//lint:ignore floatexact, logguard fixture: sloppy comma-space list
	return a/b == math.Log(b)
}

// malformed omits the mandatory reason: the directive is reported and the
// finding underneath survives.
func malformed(x float64) float64 {
	//lint:ignore logguard
	return math.Log(x)
}

// unknownAnalyzer names an analyzer the suite does not have: the directive
// is reported and, silencing nothing, leaves the finding underneath.
func unknownAnalyzer(x float64) float64 {
	//lint:ignore nosuchanalyzer fixture: a misspelt or deleted analyzer's name
	return math.Log(x)
}
