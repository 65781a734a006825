// Restaurants: the paper's headline scenario end to end — generate the
// simulated NYC crawl, corroborate it with every method, compare golden-set
// quality, and plot (textually) the multi-value trust trajectory that lets
// the incremental algorithm reject stale listings.
package main

import (
	"context"
	"fmt"
	"log"

	"corroborate"
)

func main() {
	world, err := corroborate.GenerateRestaurantWorld(corroborate.RestaurantConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	d := world.Dataset
	stats := corroborate.ComputeStats(d)
	fmt.Printf("simulated crawl: %d listings (%d open / %d closed), %d with CLOSED marks\n",
		d.NumFacts(), world.Open, world.Closed, world.FlaggedListings)
	fmt.Printf("golden set: %d listings audited\n\n", len(d.Golden()))

	fmt.Println("source          coverage  golden-accuracy  (targets from the paper's Table 3)")
	for s, p := range world.Profiles {
		fmt.Printf("%-15s %.2f      %.2f             (%.2f / %.2f)\n",
			p.Name, stats.Coverage[s], stats.Accuracy[s], p.Coverage, p.Accuracy)
	}
	fmt.Println()

	fmt.Println("method          precision  recall  accuracy  stale-found")
	for _, m := range []corroborate.Method{
		corroborate.Voting(),
		corroborate.Counting(),
		corroborate.TwoEstimate(),
		corroborate.BayesEstimate(),
		corroborate.MLLogistic(),
		corroborate.IncEstPS(),
		corroborate.IncEstScale(),
	} {
		r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		rep := corroborate.Evaluate(d, r)
		fmt.Printf("%-15s %.2f       %.2f    %.2f      %d\n",
			m.Name(), rep.Precision, rep.Recall, rep.Accuracy, rep.Confusion.TN)
	}

	// The multi-value trust score in action: how each source's trust moves
	// as batches of listings are corroborated.
	run, err := corroborate.IncEstScale().RunDetailedWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIncEstScale used %d time points; trust trajectory (sampled):\n", len(run.Trajectory))
	fmt.Print("t     ")
	for s := 0; s < d.NumSources(); s++ {
		fmt.Printf("%-13s", d.SourceName(s))
	}
	fmt.Println()
	step := len(run.Trajectory) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(run.Trajectory); i += step {
		fmt.Printf("%-5d ", i)
		for _, tr := range run.Trajectory[i].Trust {
			fmt.Printf("%-13.2f", tr)
		}
		fmt.Println()
	}
	fmt.Println("\nthe laggard directories (YellowPages, CitySearch) dip as conflicts are")
	fmt.Println("processed — the window in which their solo listings are rejected — and")
	fmt.Println("recover toward their true accuracy as the trustworthy mass is confirmed.")
}
