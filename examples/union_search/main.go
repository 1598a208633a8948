// Union search: paging through the answers of a *union* of conjunctive
// queries in uniformly random order — the paper's keyword-search motivation
// (Section 1): present the first pages of results immediately, with each
// page an unbiased sample of everything that matches.
//
// The dataset is a small bibliography; the union asks for (person, paper,
// topic) results that match either of two searches over the same join:
//
//	hot:    the paper is about a currently "hot" topic
//	local:  the author belongs to the database lab
//
// Like the paper's QS7 ∪ QC7, the disjuncts are the same join with different
// selections (realized as order-preserving filtered relations), so they
// overlap: a db-lab member writing about a hot topic matches both. Algorithm
// 5 (REnum(UCQ)) enumerates the union without duplicates anyway, and — as a
// bonus — the union is mutually compatible, so mc-UCQ random access works
// too and tells us the total count up front.
package main

import (
	"fmt"
	"math/rand"

	"repro"
)

func main() {
	db := renum.NewDatabase()
	authored := db.MustCreate("authored", "person", "paper")
	about := db.MustCreate("about", "paper", "topic")

	people := []string{"noa", "ben", "mia", "lev", "zoe", "avi", "gal", "tal"}
	dbLab := map[string]bool{"noa": true, "mia": true, "gal": true}
	topics := []string{"joins", "enumeration", "sampling", "provenance", "ranking"}
	hot := map[string]bool{"enumeration": true, "sampling": true}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		paper := fmt.Sprintf("paper%02d", i)
		about.MustInsert(db.Intern(paper), db.Intern(topics[rng.Intn(len(topics))]))
		// One or two authors per paper.
		authored.MustInsert(db.Intern(people[rng.Intn(len(people))]), db.Intern(paper))
		if rng.Intn(2) == 0 {
			authored.MustInsert(db.Intern(people[rng.Intn(len(people))]), db.Intern(paper))
		}
	}

	// Selections as order-preserving filtered relations (the same
	// construction the paper uses for its TPC-H unions).
	db.Add(about.Filter("about_hot", func(t renum.Tuple) bool {
		return hot[db.Dict().String(t[1])]
	}))
	db.Add(authored.Filter("authored_dblab", func(t renum.Tuple) bool {
		return dbLab[db.Dict().String(t[0])]
	}))

	head := []string{"person", "paper", "topic"}
	qHot := renum.MustCQ("hot", head,
		renum.NewAtom("authored", renum.V("person"), renum.V("paper")),
		renum.NewAtom("about_hot", renum.V("paper"), renum.V("topic")),
	)
	qLocal := renum.MustCQ("local", head,
		renum.NewAtom("authored_dblab", renum.V("person"), renum.V("paper")),
		renum.NewAtom("about", renum.V("paper"), renum.V("topic")),
	)
	u := renum.MustUCQ("search", qHot, qLocal)

	// One Open serves the union: the mc-UCQ backend gives the exact result
	// count right after preprocessing (Open refuses a union whose
	// enumeration orders are not compatible with ErrIncompatible).
	h, err := renum.Open(db, u)
	if err != nil {
		panic(err)
	}
	fmt.Printf("search matches: %d (counted via mc-UCQ inclusion–exclusion; capabilities %v)\n\n",
		h.Count(), h.Capabilities())

	// Random-order paging via REnum(UCQ).
	enum, err := renum.NewRandomOrderUnion(db, u, rand.New(rand.NewSource(9)))
	if err != nil {
		panic(err)
	}
	const pageSize = 5
	for page := 1; page <= 3; page++ {
		fmt.Printf("-- page %d --\n", page)
		for i := 0; i < pageSize; i++ {
			t, ok := enum.Next()
			if !ok {
				fmt.Printf("(end of results; %d internal rejections)\n", enum.Rejections())
				return
			}
			fmt.Printf("  %-4s  %-8s  %s\n",
				db.Dict().String(t[0]), db.Dict().String(t[1]), db.Dict().String(t[2]))
		}
	}
	fmt.Println("\n(stopped after three pages — every page was an unbiased sample;")
	fmt.Printf(" duplicates across the two searches were suppressed, %d rejections so far)\n",
		enum.Rejections())
}
