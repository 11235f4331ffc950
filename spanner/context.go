// Evaluation entry points. Every phase of the paper's algorithms is a
// left-to-right scan (preprocessing, counting) or a constant-delay replay
// (enumeration), so cancellation points can be threaded through without
// touching the per-byte hot loops — the passes run in bounded chunks and
// check the context between chunks, and enumerations check between
// bounded runs of matches. A cancelled call returns ctx.Err() promptly:
// within O(ctxChunk) scan work or O(ctxCheckMatches) yields.
//
// Each concern has one code path: evaluateContext (preprocessing a []byte),
// streamResultContext (preprocessing an io.Reader), drainContext
// (enumeration) and countContext (counting either source). The checks cost
// one ctx.Err() load per 64 KiB of document (or per 256 matches).
package spanner

import (
	"context"
	"io"
	"math/big"

	"spanners/internal/core"
)

// ctxChunk is the scan granularity of the context-aware passes: the
// preprocessing and counting loops run this many bytes between
// cancellation checks.
const ctxChunk = 64 << 10

// ctxCheckMatches is how many matches the context-aware enumerations yield
// between cancellation checks.
const ctxCheckMatches = 256

// EnumerateContext preprocesses doc (one O(|A|·|doc|) pass, Algorithm 1)
// and streams every match to yield with O(ℓ) delay — constant in the
// document (Algorithm 2) — stopping early when yield returns false. The
// *Match passed to yield is reused across calls; Clone it to retain it
// (clones hold plain span offsets and stay valid indefinitely).
//
// The preprocessing pass checks ctx between 64 KiB chunks and the
// enumeration between bounded runs of matches. It returns ctx.Err() if the
// context is cancelled before the evaluation completes, nil otherwise
// (including on early stop via yield).
func (s *Spanner) EnumerateContext(ctx context.Context, doc []byte, yield func(*Match) bool) error {
	sc := s.getScratch()
	defer s.putScratch(sc)
	res, err := s.evaluateContext(ctx, doc, &sc.eval)
	if err != nil {
		return err
	}
	return s.drainContext(ctx, res, yield)
}

// Enumerate is EnumerateContext without cancellation.
func (s *Spanner) Enumerate(doc []byte, yield func(*Match) bool) {
	_ = s.EnumerateContext(context.Background(), doc, yield)
}

// automaton returns the automaton the scan passes run: the lazy
// determinizer in lazy mode, the dense table otherwise.
func (s *Spanner) automaton() core.Automaton {
	if s.lazy != nil {
		return s.lazy
	}
	return s.dense
}

// feedContext hands doc to feed in ctxChunk pieces under the lazy lock,
// checking ctx before every piece and once more at the end. It stops
// feeding once dead reports that every run has died: the rest of the
// document can no longer change the result.
func (s *Spanner) feedContext(ctx context.Context, doc []byte, feed func(chunk []byte), dead func() bool) error {
	for off := 0; off < len(doc) && !dead(); off += ctxChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		unlock := s.lockLazy()
		feed(doc[off:min(off+ctxChunk, len(doc))])
		unlock()
	}
	return ctx.Err()
}

// evaluateContext runs the chunked, cancellable Algorithm 1 preprocessing
// pass over doc. The Result borrows doc and, when sc is non-nil, the
// scratch's arena.
func (s *Spanner) evaluateContext(ctx context.Context, doc []byte, sc *core.Scratch) (*core.Result, error) {
	unlock := s.lockLazy()
	st := core.NewStream(s.automaton(), sc)
	unlock()
	if err := s.feedContext(ctx, doc, st.FeedBorrowed, st.Dead); err != nil {
		return nil, err
	}
	unlock = s.lockLazy()
	defer unlock()
	res := st.CloseWith(doc)
	s.noteAccel(st.AccelSkippedBytes(), st.AccelFellBack())
	return res, nil
}

// drainContext walks every output of a preprocessing Result through one
// reused Match buffer, stopping early when yield returns false and checking
// ctx every ctxCheckMatches yields.
func (s *Spanner) drainContext(ctx context.Context, res *core.Result, yield func(*Match) bool) error {
	it := s.iterator(res)
	for n := 0; ; n++ {
		if n%ctxCheckMatches == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m, ok := it.next()
		if !ok || !yield(m) {
			return nil
		}
	}
}

// PreprocessContext runs the preprocessing pass over doc using pooled
// scratch and returns the deferred evaluation; see Evaluation. The pass
// checks ctx between chunks, and a cancelled call returns (nil, ctx.Err())
// with the pooled scratch already returned. The engine's ProcessContext
// runs it on the workers so that cancelling a batch also aborts in-flight
// documents.
func (s *Spanner) PreprocessContext(ctx context.Context, doc []byte) (*Evaluation, error) {
	sc := s.getScratch()
	res, err := s.evaluateContext(ctx, doc, &sc.eval)
	if err != nil {
		s.putScratch(sc)
		return nil, err
	}
	return &Evaluation{s: s, sc: sc, res: res}, nil
}

// countContext is the one counting path: it feeds a pooled CountStream
// (Theorem 5.1) from r when r is non-nil, from doc otherwise, checking ctx
// between chunks, then hands the closed stream to total under the lazy
// lock (totaling reads the shared automaton's state table). The pass
// retains no document bytes; a Reader source borrows a pooled read buffer.
func (s *Spanner) countContext(ctx context.Context, doc []byte, r io.Reader, total func(*core.CountStream)) error {
	sc := s.getScratch()
	defer s.putScratch(sc)
	cs := &sc.count
	unlock := s.lockLazy()
	cs.Reset(s.automaton())
	unlock()
	var err error
	if r != nil {
		err = s.pump(ctx, r, sc, cs.Feed)
	} else {
		err = s.feedContext(ctx, doc, cs.Feed, cs.Dead)
	}
	if err != nil {
		return err
	}
	unlock = s.lockLazy()
	defer unlock()
	total(cs)
	s.noteAccel(cs.AccelSkippedBytes(), cs.AccelFellBack())
	return nil
}

// CountContext returns |⟦A⟧doc| in O(|A|·|doc|) without enumerating
// (Theorem 5.1), checking ctx between 64 KiB chunks. exact is false only
// when |⟦A⟧doc| itself does not fit in uint64 — count is then its low 64
// bits; use CountBigContext for the full value. The pass migrates to big
// integers on the first intermediate overflow, so an overflowing per-state
// count whose runs all die never makes the result inexact.
func (s *Spanner) CountContext(ctx context.Context, doc []byte) (count uint64, exact bool, err error) {
	err = s.countContext(ctx, doc, nil, func(cs *core.CountStream) {
		count, exact = cs.Count()
	})
	if err != nil {
		return 0, false, err
	}
	return count, exact, nil
}

// CountBigContext is CountContext with an exact arbitrary-precision
// result. The single pass stays in uint64 until the first overflow and
// migrates to big integers only then, so the common case pays nothing for
// exactness.
func (s *Spanner) CountBigContext(ctx context.Context, doc []byte) (n *big.Int, err error) {
	err = s.countContext(ctx, doc, nil, func(cs *core.CountStream) {
		n = cs.CountBig()
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// CountBig is CountBigContext without cancellation.
func (s *Spanner) CountBig(doc []byte) *big.Int {
	n, _ := s.CountBigContext(context.Background(), doc)
	return n
}

// EnumerateReaderContext reads the document from r, evaluating it
// incrementally as chunks arrive, and streams every match to yield once the
// input ends; it stops early when yield returns false. The output is
// identical to EnumerateContext over the concatenated input, and the same
// *Match reuse rule applies (clones stay valid after the call returns). ctx
// is checked before every Read, between evaluation chunks, and during the
// enumeration. The returned error is ctx.Err() on cancellation or the first
// read error from r.
//
// Cancellation is observed between Reads; a Read that is itself blocked is
// not interrupted (plain io.Reader offers no way to). If r can stall
// indefinitely — a network stream, a pipe — wrap it in a reader that
// honors deadlines itself. The same caveat applies to
// CountBigReaderContext.
func (s *Spanner) EnumerateReaderContext(ctx context.Context, r io.Reader, yield func(*Match) bool) error {
	sc := s.getScratch()
	defer s.putScratch(sc)
	res, err := s.streamResultContext(ctx, r, sc)
	if err != nil {
		return err
	}
	return s.drainContext(ctx, res, yield)
}

// CountBigReaderContext returns the exact |⟦A⟧d| for the document read from
// r, in one pass and O(states) memory — the document is never
// materialized. ctx is checked before every Read and between chunks.
func (s *Spanner) CountBigReaderContext(ctx context.Context, r io.Reader) (n *big.Int, err error) {
	err = s.countContext(ctx, nil, r, func(cs *core.CountStream) {
		n = cs.CountBig()
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}
