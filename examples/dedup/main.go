// Dedup: the data-cleaning front half of the paper's pipeline — take a raw
// multi-source crawl full of near-duplicate listings, deduplicate it with
// address normalization + term/3-gram cosine similarity, and corroborate
// the resulting entities (one fact per restaurant, one affirmative vote per
// source that lists it).
package main

import (
	"context"
	"fmt"
	"log"

	"corroborate"
)

func main() {
	raw, _ := corroborate.GenerateCrawl(corroborate.CrawlConfig{Entities: 1200, Seed: 7})
	fmt.Printf("raw crawl: %d listings (the paper started from 42,969)\n", len(raw))

	entities, err := corroborate.Deduplicate(raw, corroborate.DedupOptions{Threshold: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deduplication: %d entities (the paper ended at 36,916)\n\n", len(entities))

	// A taste of the similarity machinery.
	a := corroborate.NormalizeAddress("346 W 46th St, NY")
	b := corroborate.NormalizeAddress("346 West 46th Street, New York")
	fmt.Printf("normalized: %q vs %q -> similarity %.2f\n\n", a, b, corroborate.Similarity(a, b))

	// Turn the entities into a corroboration dataset: each source that
	// contributed a listing affirms the restaurant; CLOSED marks deny it.
	builder := corroborate.NewBuilder()
	for _, e := range entities {
		fact := builder.Fact(e.Key + " | " + e.Name)
		for _, li := range e.Listings {
			l := raw[li]
			v := corroborate.Affirm
			if l.Closed {
				v = corroborate.Deny
			}
			builder.Vote(fact, builder.Source(l.Source), v)
		}
	}
	d := builder.Build()
	result, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	confirmed := 0
	for _, p := range result.Predictions {
		if p == corroborate.True {
			confirmed++
		}
	}
	fmt.Printf("corroborated the deduplicated entities: %d of %d confirmed\n", confirmed, d.NumFacts())
	fmt.Println("(every entity here is genuine, so near-total confirmation is expected;")
	fmt.Println(" see examples/restaurants for a world with stale listings to reject)")
}
