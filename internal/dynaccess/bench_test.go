package dynaccess

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// twoPathDB is bench/data.go's genTwoPath: r(a,b) and s(b,c) with n tuples
// each, the join key uniform over n/4 values — the serve_update_wal data at
// n = 100 000.
func twoPathDB(n int) *relation.Database {
	rng := rand.New(rand.NewSource(1))
	db := relation.NewDatabase()
	r, s := db.MustCreate("R", "a", "b"), db.MustCreate("S", "b", "c")
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Value(i), relation.Value(rng.Intn(n/4)))
	}
	for i := 0; i < n; i++ {
		s.MustInsert(relation.Value(rng.Intn(n/4)), relation.Value(i))
	}
	return db
}

const benchTuples = 100_000

var benchDB = sync.OnceValue(func() *relation.Database { return twoPathDB(benchTuples) })

func benchIndex(b *testing.B) *Index {
	b.Helper()
	idx, err := New(benchDB(), chainQ())
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkBulkLoad times the one populate path from its two doors: the
// CSV boot (New, from a database) and restore / rebuild / compaction
// (NewFromTables, from exported tables carrying tombstones).
func BenchmarkBulkLoad(b *testing.B) {
	db := benchDB()
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(db, chainQ()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NewFromTables", func(b *testing.B) {
		src := benchIndex(b)
		for i := 0; i < benchTuples; i += 10 { // a tenth of r tombstoned
			src.Delete("R", relation.Tuple{relation.Value(i), src.bases["R"].row(int32(i))[1]})
		}
		tables := src.Tables()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewFromTables(chainQ(), tables); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInsertDelete is the per-layer pair the traced benchmark reports
// as dynaccess.insert_ns / delete_ns: fresh r tuples on existing join keys,
// inserted and then deleted again.
func BenchmarkInsertDelete(b *testing.B) {
	idx := benchIndex(b)
	fresh := make([]relation.Tuple, 1<<14)
	rng := rand.New(rand.NewSource(2))
	for i := range fresh {
		fresh[i] = relation.Tuple{relation.Value(benchTuples + i), relation.Value(rng.Intn(benchTuples / 4))}
	}
	b.Run("Insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(fresh) == 0 && i > 0 { // out of fresh tuples: tombstone them all, untimed
				b.StopTimer()
				for _, t := range fresh {
					idx.Delete("R", t)
				}
				b.StartTimer()
			}
			idx.Insert("R", fresh[i%len(fresh)])
		}
	})
	for _, t := range fresh {
		idx.Insert("R", t)
	}
	b.Run("Delete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(fresh) == 0 && i > 0 {
				b.StopTimer()
				for _, t := range fresh {
					idx.Insert("R", t)
				}
				b.StartTimer()
			}
			idx.Delete("R", fresh[i%len(fresh)])
		}
	})
}

// BenchmarkProbeBesideWriter measures what the read lock costs a probe
// (ROADMAP 2c): b.N AccessInto calls split over 1, 2 and 8 readers while
// one writer deletes and revives rows as fast as it can. "locked" is the
// shipped path, readers and writer on one index: the lock's atomics plus
// the waiting behind a writer that holds it almost always. In the other two
// the writer hammers a twin built from the same rows — same CPU and memory
// traffic beside the readers, nobody to wait for: "rlock-only" still takes
// the read lock (what its two atomics cost, alone and bounced between
// readers), "unlocked" probes through AccessIntoUnlocked, which is only safe
// because nothing writes that index. ns/op is wall time per probe; compare
// modes at the same reader count.
func BenchmarkProbeBesideWriter(b *testing.B) {
	for _, mode := range []string{"locked", "rlock-only", "unlocked"} {
		for _, readers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/readers=%d", mode, readers), func(b *testing.B) {
				probed := benchIndex(b)
				written := probed
				if mode != "locked" {
					written = benchIndex(b)
				}
				n := probed.Count()
				var stop atomic.Bool
				var writer, wg sync.WaitGroup
				writer.Add(1)
				go func() {
					defer writer.Done()
					rows := written.bases["R"]
					for i := 0; !stop.Load(); i = (i + 1) % benchTuples {
						t := relation.Tuple(rows.row(int32(i))).Clone()
						written.Delete("R", t)
						written.Insert("R", t)
					}
				}()
				b.ResetTimer()
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(r)))
						row := make(relation.Tuple, len(probed.Head()))
						for i := r; i < b.N; i += readers {
							if mode == "unlocked" {
								probed.AccessIntoUnlocked(rng.Int63n(n), row)
							} else {
								probed.AccessInto(rng.Int63n(n), row)
							}
						}
					}(r)
				}
				wg.Wait()
				b.StopTimer()
				stop.Store(true)
				writer.Wait()
			})
		}
	}
}
