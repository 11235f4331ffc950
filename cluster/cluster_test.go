package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"spanners/corpus"
	"spanners/internal/gen"
	"spanners/spanner"
)

const testPattern = `.*!name{[A-Z][a-z]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`

func testDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		switch i % 4 {
		case 0:
			docs[i] = gen.Contacts(3+i%5, int64(i))
		case 1:
			docs[i] = []byte("no matches in this one")
		case 2:
			docs[i] = gen.Figure1Doc()
		default:
			docs[i] = nil // empty documents must flow through the merge too
		}
	}
	return docs
}

// serialRef evaluates the documents one by one on the calling goroutine —
// the ground truth every scatter/gather stream must reproduce exactly.
func serialRef(t *testing.T, sp *spanner.Spanner, docs [][]byte) []string {
	t.Helper()
	var out []string
	for i, doc := range docs {
		sp.Enumerate(doc, func(m *spanner.Match) bool {
			out = append(out, fmt.Sprintf("%d:%v", i, m))
			return true
		})
	}
	return out
}

// gatherAll drains a full ProcessContext run into doc-tagged match strings.
func gatherAll(t *testing.T, co *Coordinator) ([]string, Gather, error) {
	t.Helper()
	var out []string
	g, err := co.ProcessContext(context.Background(), func(doc int, ev *spanner.Evaluation, loadErr error) bool {
		if loadErr != nil {
			t.Fatalf("load error for doc %d: %v", doc, loadErr)
		}
		ev.Enumerate(func(m *spanner.Match) bool {
			out = append(out, fmt.Sprintf("%d:%v", doc, m))
			return true
		})
		return true
	})
	return out, g, err
}

// TestScatterGatherMatchesSerial pins the core contract: for K ∈ {1,2,8},
// strict and lazy, the merged stream is identical to the serial unsharded
// evaluation, and the gather accounting is complete.
func TestScatterGatherMatchesSerial(t *testing.T) {
	docs := testDocs(41)
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		sp := spanner.MustCompile(testPattern, mode)
		want := serialRef(t, sp, docs)
		if len(want) == 0 {
			t.Fatal("test corpus produces no matches")
		}
		for _, k := range []int{1, 2, 8} {
			snap := corpus.NewSnapshot("c", 1, docs, k)
			got, g, err := gatherAll(t, New(sp, snap, Workers(4)))
			if err != nil {
				t.Fatalf("K=%d %s: %v", k, sp.Mode(), err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("K=%d %s: sharded stream diverges from serial\ngot  %v\nwant %v", k, sp.Mode(), got, want)
			}
			if g.Docs != len(docs) || g.Processed != len(docs) {
				t.Fatalf("K=%d: gather = %+v, want all %d processed", k, g, len(docs))
			}
			sum := 0
			for s, ps := range g.PerShard {
				if ps.Emitted != ps.Docs {
					t.Fatalf("K=%d shard %d: emitted %d of %d on a completed run", k, s, ps.Emitted, ps.Docs)
				}
				if ps.Docs != len(snap.ShardDocs(s)) {
					t.Fatalf("K=%d shard %d: Docs=%d, snapshot owns %d", k, s, ps.Docs, len(snap.ShardDocs(s)))
				}
				sum += ps.Emitted
			}
			if sum != g.Processed {
				t.Fatalf("K=%d: per-shard sum %d != Processed %d", k, sum, g.Processed)
			}
		}
	}
}

// TestEmitStopIsPrefix pins early termination: emit returning false after
// m documents yields exactly the first m documents' matches (a strict
// global prefix), a nil error, and per-shard emitted prefixes that cover
// the drained documents.
func TestEmitStopIsPrefix(t *testing.T) {
	docs := testDocs(30)
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	snap := corpus.NewSnapshot("c", 1, docs, 4)
	const stopAfter = 11
	var drained []int
	g, err := New(sp, snap).ProcessContext(context.Background(), func(doc int, ev *spanner.Evaluation, _ error) bool {
		drained = append(drained, doc)
		return len(drained) < stopAfter
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != stopAfter {
		t.Fatalf("emit ran %d times, want %d", len(drained), stopAfter)
	}
	for i, doc := range drained {
		if doc != i {
			t.Fatalf("drained %v: not the strict global prefix", drained)
		}
	}
	if g.Processed < stopAfter || g.Processed > stopAfter+snap.Shards() {
		t.Fatalf("Processed = %d after stopping at %d with %d shards", g.Processed, stopAfter, snap.Shards())
	}
}

// TestCancellationExactAccounting sweeps a deadline across the run and
// checks, at every cut point: emit saw a strict global prefix, the error
// is the context's, and the gather never counts fewer documents than were
// actually drained.
func TestCancellationExactAccounting(t *testing.T) {
	docs := testDocs(24)
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	snap := corpus.NewSnapshot("c", 1, docs, 3)
	for cut := 0; cut <= len(docs); cut += 5 {
		ctx, cancel := context.WithCancel(context.Background())
		var drained []int
		g, err := New(sp, snap).ProcessContext(ctx, func(doc int, ev *spanner.Evaluation, _ error) bool {
			drained = append(drained, doc)
			if len(drained) == cut {
				cancel()
			}
			return true
		})
		cancel()
		for i, doc := range drained {
			if doc != i {
				t.Fatalf("cut=%d: drained %v is not a strict prefix", cut, drained)
			}
		}
		if cut > 0 && cut <= len(docs) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cut=%d: err = %v, want context.Canceled", cut, err)
			}
			if g.Processed < len(drained) {
				t.Fatalf("cut=%d: Processed %d < drained %d", cut, g.Processed, len(drained))
			}
			if g.Processed > len(drained)+snap.Shards() {
				t.Fatalf("cut=%d: Processed %d overshoots drained %d by more than one per shard", cut, g.Processed, len(drained))
			}
		} else if cut == 0 && err != nil {
			t.Fatalf("cut=0 (never cancelled): err = %v", err)
		}
	}
}

// TestPreCancelledContext pins the degenerate case: a context already dead
// at call time emits nothing and reports zero processed.
func TestPreCancelledContext(t *testing.T) {
	docs := testDocs(10)
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	snap := corpus.NewSnapshot("c", 1, docs, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := New(sp, snap).ProcessContext(ctx, func(int, *spanner.Evaluation, error) bool {
		t.Error("emit called under a dead context")
		return false
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if g.Processed != 0 {
		t.Fatalf("Processed = %d under a dead context", g.Processed)
	}
}

// TestEmptyCorpus: zero documents is a clean no-op whatever K.
func TestEmptyCorpus(t *testing.T) {
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	snap := corpus.NewSnapshot("c", 1, nil, 8)
	g, err := New(sp, snap).ProcessContext(context.Background(), func(int, *spanner.Evaluation, error) bool {
		t.Error("emit called on an empty corpus")
		return false
	})
	if err != nil || g.Docs != 0 || g.Processed != 0 {
		t.Fatalf("g = %+v, err = %v", g, err)
	}
	if err := New(sp, snap).CountContext(context.Background(), func(context.Context, int, []byte) error {
		t.Error("count fn called on an empty corpus")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCountContextMatchesSerial pins the count fan-out: every document is
// visited exactly once with its own bytes, concurrently but exactly.
func TestCountContextMatchesSerial(t *testing.T) {
	docs := testDocs(37)
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	want := make([]uint64, len(docs))
	for i, d := range docs {
		want[i] = sp.CountBig(d).Uint64()
	}
	for _, k := range []int{1, 2, 8} {
		snap := corpus.NewSnapshot("c", 1, docs, k)
		got := make([]uint64, len(docs))
		err := New(sp, snap, Workers(4)).CountContext(context.Background(),
			func(ctx context.Context, doc int, data []byte) error {
				n, _, err := sp.CountContext(ctx, data)
				got[doc] = n
				return err
			})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("K=%d: counts diverge\ngot  %v\nwant %v", k, got, want)
		}
	}
}

// TestCountContextAllOrNothing: one failing document cancels the rest and
// surfaces the error.
func TestCountContextAllOrNothing(t *testing.T) {
	docs := testDocs(20)
	sp := spanner.MustCompile(testPattern, spanner.WithLazy())
	snap := corpus.NewSnapshot("c", 1, docs, 4)
	boom := errors.New("boom")
	err := New(sp, snap, Workers(2)).CountContext(context.Background(),
		func(ctx context.Context, doc int, _ []byte) error {
			if doc == 7 {
				return boom
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
				return nil
			}
		})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if !errors.Is(err, boom) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
