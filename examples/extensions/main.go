// Extensions: the capabilities layered on top of the paper — per-category
// trust (a directory can be reliable in one borough and stale in another),
// source-dependence detection (copiers share each other's errors), and
// statistical tooling (bootstrap intervals, significance tests).
package main

import (
	"context"
	"fmt"
	"log"

	"corroborate"
)

func main() {
	d := buildWorld()

	// 1. Per-category trust: the same source, two personalities.
	catEst := corroborate.NewCategoryEstimate(
		func() corroborate.Method { return corroborate.IncEstScale() },
		corroborate.ByNamePrefix('/'),
	)
	run, err := catEst.RunDetailedWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-category trust of 'cityguide':")
	cityguide := d.SourceIndex("cityguide")
	for _, ct := range run.PerCategory {
		fmt.Printf("  %-10s %.2f\n", ct.Category, ct.Trust[cityguide])
	}
	fmt.Printf("  flat       %.2f  (one number hides the split)\n\n", run.Trust[cityguide])

	// 2. Source dependence: who copies whom?
	flat, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	matrix, err := corroborate.SourceDependence(d, flat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairwise dependence (P[copying]):")
	for i := 0; i < d.NumSources(); i++ {
		for j := i + 1; j < d.NumSources(); j++ {
			if matrix[i][j] > 0.5 {
				fmt.Printf("  %s <-> %s: %.2f\n", d.SourceName(i), d.SourceName(j), matrix[i][j])
			}
		}
	}

	// 3. Statistics: is the incremental estimator's edge significant here?
	voting, _ := corroborate.Voting().RunWith(context.Background(), d, corroborate.RunOptions{})
	p := corroborate.SignificanceTest(d, flat, voting, 10000, 1)
	iv, _ := corroborate.BootstrapAccuracy(d, flat, 2000, 0.95, 1)
	repA := corroborate.Evaluate(d, flat)
	repB := corroborate.Evaluate(d, voting)
	fmt.Printf("\nIncEstScale accuracy %.2f %s vs Voting %.2f: paired permutation p = %.4f\n",
		repA.Accuracy, iv, repB.Accuracy, p)
}

// buildWorld wires a two-borough world with a split-personality directory
// and a pair of mirroring sources.
func buildWorld() *corroborate.Dataset {
	b := corroborate.NewBuilder()
	cityguide := b.Source("cityguide") // great uptown, stale downtown
	mirrorA := b.Source("mirror-a")    // mirror-b copies mirror-a
	mirrorB := b.Source("mirror-b")
	auditor := b.Source("auditor")

	fact := func(name string, label corroborate.Label, votes ...func(int)) {
		f := b.Fact(name)
		b.Label(f, label)
		for _, v := range votes {
			v(f)
		}
	}
	affirm := func(s int) func(int) { return func(f int) { b.Vote(f, s, corroborate.Affirm) } }
	deny := func(s int) func(int) { return func(f int) { b.Vote(f, s, corroborate.Deny) } }

	for i := 0; i < 10; i++ {
		fact(fmt.Sprintf("uptown/ok%d", i), corroborate.True,
			affirm(cityguide), affirm(auditor))
	}
	for i := 0; i < 8; i++ {
		fact(fmt.Sprintf("downtown/ok%d", i), corroborate.True,
			affirm(auditor), affirm(mirrorA), affirm(mirrorB))
	}
	for i := 0; i < 4; i++ {
		fact(fmt.Sprintf("downtown/exposed%d", i), corroborate.False,
			affirm(cityguide), deny(auditor))
	}
	for i := 0; i < 6; i++ {
		fact(fmt.Sprintf("downtown/stale%d", i), corroborate.False,
			affirm(cityguide))
	}
	// The mirrors share a block of errors the auditor catches — the
	// copying signature.
	for i := 0; i < 5; i++ {
		fact(fmt.Sprintf("downtown/mirrored%d", i), corroborate.False,
			affirm(mirrorA), affirm(mirrorB), deny(auditor))
	}
	return b.Build()
}
