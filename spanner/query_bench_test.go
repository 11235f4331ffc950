package spanner_test

// Benchmarks for the query-plan layer, recorded in BENCH_spanner.json by
// scripts/bench.sh:
//
//   - n-ary union lowering (one fresh initial, each operand embedded once)
//     against the chained binary construction (the unoptimized plan), on
//     compile time, and
//   - a deep plan with repeated subexpressions and a projection, optimized
//     against unoptimized, on evaluation throughput (the counting pass —
//     a pure scan whose cost tracks the live automaton size).

import (
	"fmt"
	"math/rand"
	"testing"

	"spanners/spanner"
)

// wideUnionQuery builds a k-operand union as callers naturally write it:
// one .Union call at a time, i.e. a left-nested chain of binary nodes.
func wideUnionQuery(k int) *spanner.Query {
	q := spanner.Pattern(`(a|b)*!v0{a+}(a|b)*`)
	for i := 1; i < k; i++ {
		q = q.Union(spanner.Pattern(fmt.Sprintf(`(a|b)*!v%d{a+b}(a|b)*`, i)))
	}
	return q
}

// BenchmarkQueryCompileNaryUnion measures compiling a 12-way union through
// the optimizer: the flattened plan lowers through eva.UnionAll, embedding
// each operand exactly once.
func BenchmarkQueryCompileNaryUnion(b *testing.B) {
	q := wideUnionQuery(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCompileChainedUnion is the same query without the
// optimizer: the nested binary unions lower as a fold, re-embedding the
// accumulated sum at every step (Θ(k²) copy work).
func BenchmarkQueryCompileChainedUnion(b *testing.B) {
	q := wideUnionQuery(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Compile(spanner.WithoutOptimization()); err != nil {
			b.Fatal(err)
		}
	}
}

// deepPlanQuery is a deep composed plan with repeated subexpressions: a
// nested 8-operand union over 3 distinct patterns, projected onto one
// variable. The optimizer flattens it to a 3-ary sum and pushes the
// projection into the operands; the unoptimized plan carries every copy.
func deepPlanQuery() *spanner.Query {
	p1 := spanner.Pattern(`(a|b)*!x{a+}(a|b)*`)
	p2 := spanner.Pattern(`(a|b)*!y{b+a}(a|b)*`)
	p3 := spanner.Pattern(`(a|b)*!x{ab}(a|b)*`)
	return p1.Union(p2).Union(p3).Union(p1).Union(p2).Union(p3).Union(p1).Union(p2).
		Project("x")
}

func benchDeepPlanDoc() []byte {
	rng := rand.New(rand.NewSource(7))
	doc := make([]byte, 1<<16)
	for i := range doc {
		doc[i] = byte('a' + rng.Intn(2))
	}
	return doc
}

func benchDeepPlanCount(b *testing.B, opts ...spanner.Option) {
	s, err := deepPlanQuery().Compile(opts...)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchDeepPlanDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count(b, s, doc)
	}
}

// BenchmarkDeepPlanCountOptimized measures the counting scan of the
// optimized deep plan (deduplicated operands, pushed projection). The
// strict pipeline determinizes both plans into isomorphic automata, so
// this pair mostly documents that optimization never hurts the scan.
func BenchmarkDeepPlanCountOptimized(b *testing.B) {
	benchDeepPlanCount(b)
}

// BenchmarkDeepPlanCountUnoptimized is the same scan over the plan
// compiled exactly as written.
func BenchmarkDeepPlanCountUnoptimized(b *testing.B) {
	benchDeepPlanCount(b, spanner.WithoutOptimization())
}

func benchDeepPlanCompile(b *testing.B, opts ...spanner.Option) {
	q := deepPlanQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Compile(opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepPlanCompileOptimized measures where the optimizer pays at
// compile time: dedup shrinks the automaton fed into determinization from
// eight embedded operands to three.
func BenchmarkDeepPlanCompileOptimized(b *testing.B) {
	benchDeepPlanCompile(b)
}

// BenchmarkDeepPlanCompileUnoptimized compiles the same plan as written.
func BenchmarkDeepPlanCompileUnoptimized(b *testing.B) {
	benchDeepPlanCompile(b, spanner.WithoutOptimization())
}
