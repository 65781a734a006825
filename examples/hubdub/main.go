// Hubdub: corroboration under ample conflict — the opposite regime from
// the affirmative-statement scenario. Simulates a prediction-market
// snapshot (settled multi-answer questions, heterogeneous bettors) and
// compares the error counts of the classic corroborators, as in the
// paper's Table 7.
package main

import (
	"context"
	"fmt"
	"log"

	"corroborate"
)

func main() {
	world, err := corroborate.GenerateHubdubWorld(corroborate.HubdubConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	d := world.Dataset
	fmt.Printf("simulated snapshot: %d candidate answers over %d questions, %d users, %d bets\n",
		d.NumFacts(), len(world.Answers), d.NumSources(), world.Bets)
	fmt.Printf("affirmative-only facts: %.0f%% (conflict is ample here)\n\n", 100*d.AffirmativeShare())

	methods := []corroborate.Method{
		corroborate.Voting(),
		corroborate.Counting(),
		corroborate.TwoEstimate(),
		corroborate.ThreeEstimate(),
		corroborate.TruthFinder(),
		corroborate.PooledInvest(),
	}
	fmt.Println("method          errors (FP+FN over all answer-facts)   questions wrong (argmax)")
	for _, m := range methods {
		r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %-38d %d/%d\n", m.Name(), world.Errors(r), world.QuestionsWrong(r), len(world.Answers))
	}

	fmt.Println("\nwith explicit disagreement in the data, iterative trust estimation")
	fmt.Println("(TwoEstimate and friends) separates the market's regulars from the")
	fmt.Println("drive-by bettors and beats the per-question majority.")
}
