package engine_test

// The multi-document benchmark: aggregate throughput of evaluating one
// compiled spanner over a batch of documents.
//
//   - serial:   the seed-era loop — one unpooled core evaluation and
//     pull iterator per document (every document pays the full DAG-arena
//     allocation).
//   - pooled:   serial Enumerate, which recycles evaluation scratch via
//     the facade's sync.Pool.
//   - workersN: the engine's worker pool (pooled scratch per worker plus
//     goroutine fan-out with deterministic merge).
//
// scripts/bench.sh records these in BENCH_spanner.json; the batch entries
// are the regression guard for the engine's ≥2× aggregate-throughput win
// over the serial baseline.

import (
	"context"
	"testing"

	"spanners/engine"
	"spanners/internal/core"
	"spanners/internal/gen"
	"spanners/spanner"
)

// benchBatch is 256 small contact documents (~1.3 KB each): the
// compile-once/evaluate-many shape where per-document setup dominates.
func benchBatch() (docs [][]byte, totalBytes int64) {
	docs = make([][]byte, 256)
	for i := range docs {
		docs[i] = gen.Contacts(60, int64(i))
		totalBytes += int64(len(docs[i]))
	}
	return docs, totalBytes
}

func BenchmarkBatchThroughput(b *testing.B) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs, total := benchBatch()

	b.Run("serial", func(b *testing.B) {
		d, err := spanner.Pipeline(gen.Figure1Pattern())
		if err != nil {
			b.Fatal(err)
		}
		dense, err := d.CompileDense()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, doc := range docs {
				it := core.Evaluate(dense, doc).Iterator()
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, doc := range docs {
				s.Enumerate(doc, func(*spanner.Match) bool { n++; return true })
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
	for _, workers := range []int{2, 8} {
		e := engine.New(s, engine.Workers(workers))
		b.Run("workers"+string(rune('0'+workers)), func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for range run(e, docs) {
					n++
				}
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkBatchCount measures the counting pass over the same batch: the
// per-document state is O(states), so this isolates the fan-out overhead.
func BenchmarkBatchCount(b *testing.B) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs, total := benchBatch()
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				_, _, _ = s.CountContext(context.Background(), doc)
			}
		}
	})
	b.Run("workers8", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			countBatch(s, 8, docs)
		}
	})
}
