package core

import (
	"math/big"
)

// total sums the counts of the accepting live states; exact is false when
// any step of the computation overflowed uint64 (the sum is then the low
// 64 bits of the true total).
func (c *counter) total() (count uint64, exact bool) {
	var total uint64
	for _, q := range c.live {
		if c.a.Accepting(q) {
			var carry bool
			total, carry = addOverflow(total, c.counts[q])
			c.overflow = c.overflow || carry
		}
	}
	return total, !c.overflow
}

// counter is the uint64 Algorithm 3 state. live holds each live state —
// one reached by some partial run — exactly once; inLive is the matching
// membership bitmap. Membership must be tracked explicitly rather than as
// counts[q] != 0: once arithmetic has wrapped, a live state can carry a
// count of exactly zero, and using the count as the sentinel would append
// it to live twice, double-counting it in total() and breaking the
// low-64-bits contract.
type counter struct {
	a        Automaton
	counts   []uint64
	live     []int
	inLive   []bool
	olds     []uint64
	nextLive []int
	overflow bool
}

func (c *counter) ensure(q int) {
	for len(c.counts) <= q {
		c.counts = append(c.counts, 0)
		c.inLive = append(c.inLive, false)
	}
}

func (c *counter) add(q int, n uint64) {
	sum, carry := addOverflow(c.counts[q], n)
	c.counts[q] = sum
	c.overflow = c.overflow || carry
}

func addOverflow(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s < a
}

// capturing mirrors Capturing(i): N[p] += N′[q] for every capture
// transition (q, S, p), where N′ is the snapshot before the procedure.
func (c *counter) capturing() {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		c.olds = append(c.olds, c.counts[q])
	}
	n := len(c.live)
	for k := 0; k < n; k++ {
		q := c.live[k]
		for _, t := range c.a.Captures(q) {
			c.ensure(t.To)
			if !c.inLive[t.To] {
				c.inLive[t.To] = true
				c.live = append(c.live, t.To)
			}
			c.add(t.To, c.olds[k])
		}
	}
}

// reading mirrors Reading(i): counts move along letter transitions.
func (c *counter) reading(ch byte) {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		c.olds = append(c.olds, c.counts[q])
		c.counts[q] = 0
		c.inLive[q] = false
	}
	c.nextLive = c.nextLive[:0]
	for k, q := range c.live {
		t, ok := c.a.Step(q, ch)
		if !ok {
			continue
		}
		c.ensure(t)
		if !c.inLive[t] {
			c.inLive[t] = true
			c.nextLive = append(c.nextLive, t)
		}
		c.add(t, c.olds[k])
	}
	c.live, c.nextLive = c.nextLive, c.live
}

// total sums the counts of the accepting live states.
func (c *bigCounter) total() *big.Int {
	total := new(big.Int)
	for _, q := range c.live {
		if c.a.Accepting(q) && c.counts[q] != nil {
			total.Add(total, c.counts[q])
		}
	}
	return total
}

// bigCounter is the arbitrary-precision Algorithm 3 state. A nil count is
// the liveness sentinel: counts[q] is non-nil exactly when q ∈ live (a
// materialized zero still means live — runs whose wrapped uint64 count was
// zero at migration). Keying liveness on nil rather than on a zero value
// keeps each state in live exactly once, so total() never double-counts.
type bigCounter struct {
	a        Automaton
	counts   []*big.Int
	live     []int
	olds     []*big.Int
	nextLive []int
}

func (c *bigCounter) ensure(q int) {
	for len(c.counts) <= q {
		c.counts = append(c.counts, nil)
	}
}

func (c *bigCounter) add(q int, n *big.Int) {
	if c.counts[q] == nil {
		c.counts[q] = new(big.Int)
	}
	c.counts[q].Add(c.counts[q], n)
}

func (c *bigCounter) capturing() {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		// A live state normally carries a materialized count, but the
		// invariant is load-bearing across CountStream.migrate, which
		// rebuilds the live set from a snapshot: tolerate a nil (zero)
		// count rather than panic on it.
		old := new(big.Int)
		if c.counts[q] != nil {
			old.Set(c.counts[q])
		}
		c.olds = append(c.olds, old)
	}
	n := len(c.live)
	for k := 0; k < n; k++ {
		q := c.live[k]
		for _, t := range c.a.Captures(q) {
			c.ensure(t.To)
			if c.counts[t.To] == nil {
				c.live = append(c.live, t.To)
			}
			c.add(t.To, c.olds[k])
		}
	}
}

func (c *bigCounter) reading(ch byte) {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		old := c.counts[q]
		if old == nil {
			old = new(big.Int)
		}
		c.olds = append(c.olds, old)
		c.counts[q] = nil
	}
	c.nextLive = c.nextLive[:0]
	for k, q := range c.live {
		t, ok := c.a.Step(q, ch)
		if !ok {
			continue
		}
		c.ensure(t)
		if c.counts[t] == nil {
			c.nextLive = append(c.nextLive, t)
		}
		c.add(t, c.olds[k])
	}
	c.live, c.nextLive = c.nextLive, c.live
}

// CountStream implements Algorithm 3 (appendix C): it computes |⟦A⟧d| for
// a deterministic sequential eVA in time O(|A| × |d|) by replacing each node
// list of Algorithm 1 with the number of partial runs reaching the state.
// Because the automaton is sequential (every partial run encodes a valid
// partial mapping) and deterministic (each partial run encodes a distinct
// partial mapping), the run count per state equals the partial-mapping
// count, and summing over the final states yields |⟦A⟧d|. Feed advances
// the per-state run counts chunk-by-chunk and Close runs the final
// Capturing, so the document is never materialized (counting, unlike
// enumeration, needs no document bytes).
//
// Counts run in uint64 — the paper's uniform-cost RAM model — until the
// first overflow (counts grow like n^2ℓ, so overflow is reachable on
// purpose-built inputs). The stream snapshots its O(states) counter state
// at each chunk boundary; when a chunk overflows, it rewinds to the
// snapshot, replays that chunk with arbitrary-precision arithmetic, and
// stays in big mode from then on. Count therefore reports exact uint64
// results whenever |⟦A⟧d| fits, while CountBig is exact always, in a single
// pass over the input. A CountStream is not goroutine-safe.
type CountStream struct {
	a      Automaton
	c      counter
	gate   accelGate
	bc     *bigCounter // non-nil once migrated to big arithmetic
	snapC  []uint64    // counter state at the last chunk boundary
	snapL  []int
	snapG  accelGate
	closed bool
}

// NewCountStream starts an incremental counting pass of a over a document
// to be delivered via Feed.
func NewCountStream(a Automaton) *CountStream {
	s := &CountStream{}
	s.Reset(a)
	return s
}

// Reset restarts s as a fresh counting pass of a, keeping the capacity of
// its tables, so a pooled CountStream counts a document without
// allocating once warm.
func (s *CountStream) Reset(a Automaton) {
	c := &s.c
	*c = counter{a: a, counts: c.counts[:0], live: c.live[:0], inLive: c.inLive[:0],
		olds: c.olds[:0], nextLive: c.nextLive[:0]}
	s.a, s.bc, s.closed = a, nil, false
	s.snapC, s.snapL = s.snapC[:0], s.snapL[:0]
	q0 := a.Initial()
	c.ensure(q0)
	c.counts[q0] = 1
	c.inLive[q0] = true
	c.live = append(c.live, q0)
	s.gate.init(a)
}

// Feed advances the counting pass over the next chunk of the document. The
// chunk is not retained. Feed panics if the stream is already closed.
//
// Once the live state set drains — no partial run survives — no later byte
// can revive one, so Feed returns immediately and the remaining input costs
// nothing beyond delivery.
//
// spanlint:hotpath — the uint64 counting loop allocates nothing; hotalloc
// (cmd/spanlint) enforces it. The arbitrary-precision fallback (feedBig)
// allocates by design and is waived at its call site.
func (s *CountStream) Feed(chunk []byte) {
	if s.closed {
		panic("core: CountStream.Feed after Close")
	}
	if s.bc == nil {
		if len(s.c.live) == 0 {
			return
		}
		s.snapshot()
		for i, last := 0, 0; i < len(chunk) && len(s.c.live) > 0; {
			// Counting admits the same bulk skip as enumeration: over an
			// inert byte the Capturing+Reading round maps the singleton
			// configuration (and its run counts) to itself, and the
			// counting pass tracks no positions at all.
			if s.gate.on {
				if q, ok := s.gate.scanState(s.c.live); ok {
					n := s.gate.trySkip(q, chunk[i:], i-last)
					last = i + n
					if n > 0 {
						i += n
						continue
					}
				}
			}
			s.c.capturing()
			s.c.reading(chunk[i])
			i++
		}
		if !s.c.overflow {
			return
		}
		s.migrate()
	}
	//spanlint:ignore hotalloc big.Int arithmetic allocates by design; entered only after a uint64 overflow, never on the fast path
	s.feedBig(chunk)
}

// feedBig advances the arbitrary-precision counting pass over chunk. It is
// the post-overflow continuation of Feed and allocates freely (big.Int
// arithmetic), which is why it lives outside the spanlint:hotpath contract.
func (s *CountStream) feedBig(chunk []byte) {
	for i, last := 0, 0; i < len(chunk) && len(s.bc.live) > 0; {
		if s.gate.on {
			if q, ok := s.gate.scanState(s.bc.live); ok {
				n := s.gate.trySkip(q, chunk[i:], i-last)
				last = i + n
				if n > 0 {
					i += n
					continue
				}
			}
		}
		s.bc.capturing()
		s.bc.reading(chunk[i])
		i++
	}
}

// snapshot saves the uint64 counter state so an overflowing chunk can be
// replayed in big mode. The acceleration gate is snapshotted alongside:
// the big-mode replay makes the same skip decisions the uint64 pass made,
// so rewinding the gate keeps its counters from double-counting the chunk.
func (s *CountStream) snapshot() {
	s.snapC = append(s.snapC[:0], s.c.counts...)
	s.snapL = append(s.snapL[:0], s.c.live...)
	s.snapG = s.gate
}

// migrate rebuilds the counter state of the last chunk boundary with
// arbitrary-precision counts; the caller replays the chunk that overflowed.
// Every live state gets a materialized count — including zero-valued ones —
// establishing the bigCounter invariant "live ⟺ non-nil count" even if the
// snapshot ever carries a live state whose uint64 count is zero, and
// dropping any duplicate the snapshot might hold (total() sums per live
// entry, so a duplicate would double-count).
func (s *CountStream) migrate() {
	bc := &bigCounter{a: s.a, counts: make([]*big.Int, len(s.snapC))}
	for _, q := range s.snapL {
		if bc.counts[q] == nil {
			bc.counts[q] = new(big.Int).SetUint64(s.snapC[q])
			bc.live = append(bc.live, q)
		}
	}
	s.bc = bc
	s.gate = s.snapG
}

// Close runs the final Capturing. It is idempotent; Count and CountBig call
// it implicitly.
func (s *CountStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.bc == nil {
		s.snapshot()
		s.c.capturing()
		if s.c.overflow {
			s.migrate()
			s.bc.capturing()
		}
		return
	}
	s.bc.capturing()
}

// Count returns |⟦A⟧d| for the document fed so far; exact is false only
// when |⟦A⟧d| itself does not fit in uint64 (use CountBig then). An
// intermediate per-state overflow alone never makes it inexact: after
// migrating to big arithmetic the stream still knows the true total.
//
// When exact is false, count is the low 64 bits of the true total — the
// same value on both internal paths: uint64 arithmetic wraps modulo 2^64
// throughout, and the migrated big-integer total is truncated the same way.
func (s *CountStream) Count() (count uint64, exact bool) {
	s.Close()
	if s.bc != nil {
		t := s.bc.total()
		if t.IsUint64() {
			return t.Uint64(), true
		}
		return low64(t), false
	}
	return s.c.total()
}

// Dead reports whether no partial run survives: every run has died, so
// the count is zero regardless of further input. Callers may use this to
// stop feeding early.
func (s *CountStream) Dead() bool {
	if s.bc != nil {
		return len(s.bc.live) == 0
	}
	return len(s.c.live) == 0
}

// AccelSkippedBytes returns how many document bytes the acceleration layer
// bulk-skipped so far (0 when the automaton carries no Accelerator).
func (s *CountStream) AccelSkippedBytes() int64 { return s.gate.skipped }

// AccelFellBack reports whether the effectiveness fallback disabled
// acceleration for the rest of the document.
func (s *CountStream) AccelFellBack() bool { return s.gate.fellBack }

// low64 returns the low 64 bits of a non-negative big integer.
func low64(t *big.Int) uint64 {
	mask := new(big.Int).SetUint64(^uint64(0))
	return new(big.Int).And(t, mask).Uint64()
}

// CountBig returns the exact |⟦A⟧d| with arbitrary-precision arithmetic.
func (s *CountStream) CountBig() *big.Int {
	s.Close()
	if s.bc != nil {
		return s.bc.total()
	}
	if n, exact := s.c.total(); exact {
		return new(big.Int).SetUint64(n)
	}
	// The totals sum itself overflowed even though every per-state count
	// fit; re-sum the final counts in big arithmetic.
	total := new(big.Int)
	var t big.Int
	for _, q := range s.c.live {
		if s.a.Accepting(q) {
			total.Add(total, t.SetUint64(s.c.counts[q]))
		}
	}
	return total
}
