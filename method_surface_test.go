package corroborate_test

import (
	"reflect"
	"strings"
	"testing"

	"corroborate"
)

// TestMethodConfigurationSurface pins what a caller can set on each
// method: Seed on the seeded comparators, and the six IncEstimate knobs on
// the incremental profiles. Every other method runs at its published
// setting and carries no exported field, so a new tuning knob needs a
// visible edit here.
func TestMethodConfigurationSurface(t *testing.T) {
	incEstimate := "Strategy InitialTrust FullGroups FlipDeltaH SoftAbsorb DeferBand"
	want := map[string]string{
		"BayesEstimate": "Seed",
		"ML-SVM (SMO)":  "Seed",
		"ML-Logistic":   "Seed",
		"ML-NaiveBayes": "Seed",
		"IncEstPS":      incEstimate,
		"IncEstHeu":     incEstimate,
		"IncEstScale":   incEstimate,
	}
	for _, m := range append(corroborate.Methods(), corroborate.DependVoting()) {
		typ := reflect.TypeOf(m)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		var fields []string
		for i := 0; typ.Kind() == reflect.Struct && i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		if got := strings.Join(fields, " "); got != want[m.Name()] {
			t.Errorf("%s (%s) exports fields %q, want %q", m.Name(), typ, got, want[m.Name()])
		}
		delete(want, m.Name())
	}
	for name := range want {
		t.Errorf("no method named %s", name)
	}
}
