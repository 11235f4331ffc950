// Reader-based evaluation: the Algorithm 1 preprocessing phase is a single
// left-to-right scan, so a Spanner can consume a document incrementally
// from an io.Reader — chunks are evaluated as they arrive, and enumeration
// starts the moment the input ends. The document bytes are retained (the
// output spans refer to them), so what streaming buys is latency and the
// elimination of a separate read-everything-first pass, not peak memory:
// the DAG is proportional to the document either way.
package spanner

import (
	"context"
	"io"

	"spanners/internal/core"
)

// readChunk is the Read granularity of the Reader-based entry points.
const readChunk = 64 << 10

// evalScratch bundles the pooled per-document state: the core evaluation
// scratch (Algorithm 1 tables + DAG arena), the counting pass's tables and
// the Read buffer of the Reader-based entry points.
type evalScratch struct {
	eval  core.Scratch
	count core.CountStream
	rbuf  []byte
}

func (s *Spanner) getScratch() *evalScratch {
	if v := s.scratch.Get(); v != nil {
		return v.(*evalScratch)
	}
	return &evalScratch{}
}

func (s *Spanner) putScratch(sc *evalScratch) { s.scratch.Put(sc) }

// lockLazy serializes against other evaluations in lazy mode (the
// on-the-fly determinizer's memo tables mutate during the pass, and even
// read paths observe its growing state table). It returns the matching
// unlock, a no-op in strict mode. Locking per chunk rather than per
// document keeps the lock from being held across Reads.
func (s *Spanner) lockLazy() (unlock func()) {
	if s.lazy == nil {
		return func() {}
	}
	s.mu.Lock()
	return s.mu.Unlock
}

// pump reads r in chunks through the scratch's read buffer and hands each
// chunk to feed under the lazy lock. The chunk is only valid during the
// feed call. ctx is checked before every Read; cancellation surfaces as
// ctx.Err().
func (s *Spanner) pump(ctx context.Context, r io.Reader, sc *evalScratch, feed func(chunk []byte)) error {
	if sc.rbuf == nil {
		sc.rbuf = make([]byte, readChunk)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.Read(sc.rbuf)
		if n > 0 {
			unlock := s.lockLazy()
			feed(sc.rbuf[:n])
			unlock()
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// streamResultContext pumps r through an incremental preprocessing pass,
// checking ctx before every Read, and returns the closed Result. The
// document buffer the Result borrows is freshly allocated per call — never
// pooled — so Matches cloned by the caller keep valid span text after the
// scratch is reused.
func (s *Spanner) streamResultContext(ctx context.Context, r io.Reader, sc *evalScratch) (*core.Result, error) {
	unlock := s.lockLazy()
	st := core.NewStream(s.automaton(), &sc.eval)
	unlock()
	if err := s.pump(ctx, r, sc, st.Feed); err != nil {
		return nil, err
	}
	unlock = s.lockLazy()
	defer unlock()
	res := st.Close()
	s.noteAccel(st.AccelSkippedBytes(), st.AccelFellBack())
	return res, nil
}

// Evaluation is a preprocessed document whose enumeration is deferred: the
// O(|A|·|doc|) Algorithm 1 pass has run, and Enumerate replays the matches
// with constant delay at any later point. It decouples where the two
// phases run — the engine package preprocesses on worker goroutines and
// enumerates on the consumer — while keeping the facade's pooled-scratch
// economics: Release returns the evaluation state to the spanner's pool.
//
// PreprocessContext returns one; call Enumerate (any number of times) and
// then Release. A dropped Evaluation is safe but forgoes scratch reuse. The
// pairing is machine-checked: cmd/spanlint's releasepair analyzer verifies
// that every PreprocessContext result reaches Release (or is handed off)
// on all paths, error paths included.
//
// An Evaluation is not goroutine-safe. After Release it must not be used.
type Evaluation struct {
	s   *Spanner
	sc  *evalScratch
	res *core.Result
}

// Enumerate streams every match to yield, stopping early when yield
// returns false. The *Match passed to yield is reused across calls; Clone
// it to retain it.
func (e *Evaluation) Enumerate(yield func(*Match) bool) {
	it := e.s.iterator(e.res)
	for m, ok := it.next(); ok && yield(m); m, ok = it.next() {
	}
}

// Release returns the evaluation state to the spanner's scratch pool. The
// Evaluation — and any un-Cloned *Match it yielded — is invalid afterwards.
func (e *Evaluation) Release() {
	if e.sc == nil {
		return // already released
	}
	e.s.putScratch(e.sc)
	e.sc = nil
	e.res = nil
}
