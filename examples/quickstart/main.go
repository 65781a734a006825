// Quickstart: corroborate a handful of restaurant listings with mostly
// affirmative statements and see which ones the incremental algorithm
// rejects despite their support.
package main

import (
	"context"
	"fmt"
	"log"

	"corroborate"
)

func main() {
	// Four directory sites list restaurants; listing = affirmative vote,
	// an explicit CLOSED mark = negative vote.
	b := corroborate.NewBuilder()

	votes := []struct {
		fact, source string
		vote         corroborate.Vote
	}{
		// A block of listings everyone agrees on.
		{"blue harbor grill", "menupages", corroborate.Affirm},
		{"blue harbor grill", "yelp", corroborate.Affirm},
		{"blue harbor grill", "yellowpages", corroborate.Affirm},
		{"lucky dragon", "menupages", corroborate.Affirm},
		{"lucky dragon", "yelp", corroborate.Affirm},
		{"old mill tavern", "yelp", corroborate.Affirm},
		{"old mill tavern", "menupages", corroborate.Affirm},
		{"old mill tavern", "yellowpages", corroborate.Affirm},
		// Conflicts: Menupages marks two places CLOSED that the laggard
		// directories still list.
		{"dannys grand sea palace", "menupages", corroborate.Deny},
		{"dannys grand sea palace", "yellowpages", corroborate.Affirm},
		{"dannys grand sea palace", "citysearch", corroborate.Affirm},
		{"corner diner", "menupages", corroborate.Deny},
		{"corner diner", "yellowpages", corroborate.Affirm},
		// Affirmative-only listings carried ONLY by the laggards — exactly
		// the facts a majority vote can never question.
		{"silver star cafe", "yellowpages", corroborate.Affirm},
		{"silver star cafe", "citysearch", corroborate.Affirm},
		{"royal palace buffet", "yellowpages", corroborate.Affirm},
		{"red fork kitchen", "citysearch", corroborate.Affirm},
	}
	for _, v := range votes {
		b.VoteNamed(v.fact, v.source, v.vote)
	}
	d := b.Build()

	fmt.Printf("dataset: %d facts from %d sources, %.0f%% carry affirmative votes only\n\n",
		d.NumFacts(), d.NumSources(), 100*d.AffirmativeShare())

	for _, method := range []corroborate.Method{
		corroborate.Voting(),
		corroborate.TwoEstimate(),
		corroborate.IncEstScale(),
	} {
		result, err := method.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", method.Name())
		for f := 0; f < d.NumFacts(); f++ {
			fmt.Printf("  %-28s %-5v (p=%.2f)\n", d.FactName(f), result.Predictions[f], result.FactProb[f])
		}
		if result.Trust != nil {
			fmt.Print("  trust: ")
			for s := 0; s < d.NumSources(); s++ {
				fmt.Printf("%s=%.2f ", d.SourceName(s), result.Trust[s])
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("Voting and TwoEstimate confirm every affirmative-only listing;")
	fmt.Println("the incremental corroborator rejects the laggard-only block after")
	fmt.Println("the CLOSED conflicts expose those directories.")
}
