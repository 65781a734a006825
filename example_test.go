package corroborate_test

import (
	"context"
	"fmt"

	"corroborate"
)

// The paper's motivating example end to end: corroborate Table 1 with the
// incremental algorithm and read off the verdicts the single-trust methods
// cannot reach.
func ExampleIncEstHeu() {
	d := corroborate.MotivatingExample()
	result, err := corroborate.IncEstHeu().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"r5", "r6", "r12"} {
		f := d.FactIndex(name)
		fmt.Printf("%s: %v\n", name, result.Predictions[f])
	}
	rep := corroborate.Evaluate(d, result)
	fmt.Printf("precision %.2f recall %.2f accuracy %.2f\n", rep.Precision, rep.Recall, rep.Accuracy)
	// Output:
	// r5: false
	// r6: false
	// r12: false
	// precision 0.78 recall 1.00 accuracy 0.83
}

// Building a dataset by hand: listings affirm, CLOSED marks deny.
func ExampleBuilder() {
	b := corroborate.NewBuilder()
	b.VoteNamed("dannys", "yellowpages", corroborate.Affirm)
	b.VoteNamed("dannys", "menupages", corroborate.Deny)
	b.VoteNamed("harbor", "menupages", corroborate.Affirm)
	d := b.Build()
	fmt.Println(d.NumFacts(), "facts from", d.NumSources(), "sources")
	fmt.Println("dannys votes:", d.Signature(d.FactIndex("dannys")))
	// Output:
	// 2 facts from 2 sources
	// dannys votes: 0:T 1:F
}

// TwoEstimate on the motivating example reproduces the paper's §2.1 trust
// vector.
func ExampleTwoEstimate() {
	d := corroborate.MotivatingExample()
	result, err := corroborate.TwoEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		panic(err)
	}
	for s := 0; s < d.NumSources(); s++ {
		fmt.Printf("%s=%.1f ", d.SourceName(s), result.Trust[s])
	}
	fmt.Println()
	// Output:
	// s1=1.0 s2=1.0 s3=0.8 s4=0.9 s5=1.0
}

// Streaming corroboration: the first batch exposes a source; the second
// batch's affirmative-only facts are judged by the carried trust.
func ExampleStream() {
	st := corroborate.NewShardedStream(1)
	_, err := st.AddBatch([]corroborate.BatchVote{
		{Fact: "x1", Source: "flagger", Vote: corroborate.Deny},
		{Fact: "x1", Source: "laggard", Vote: corroborate.Affirm},
		{Fact: "ok", Source: "flagger", Vote: corroborate.Affirm},
	})
	if err != nil {
		panic(err)
	}
	out, err := st.AddBatch([]corroborate.BatchVote{
		{Fact: "solo", Source: "laggard", Vote: corroborate.Affirm},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("solo:", out[0].Prediction)
	// Output:
	// solo: false
}

// Entropy-driven audit planning: which facts should be verified in person
// first?
func ExamplePlanAudit() {
	d := corroborate.MotivatingExample()
	result, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		panic(err)
	}
	plan, err := corroborate.PlanAudit(d, result, 2, corroborate.AuditOptions{})
	if err != nil {
		panic(err)
	}
	for _, item := range plan {
		fmt.Printf("check %s (informs %d facts)\n", d.FactName(item.Fact), item.GroupSize)
	}
	// Output:
	// check r4 (informs 2 facts)
	// check r8 (informs 2 facts)
}
