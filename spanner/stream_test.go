package spanner_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// chunkReader delivers data in fixed-size chunks, forcing the streaming
// entry points through many Feed boundaries.
type chunkReader struct {
	data []byte
	size int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.size, min(len(p), len(r.data)))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// errReader yields some data and then a non-EOF error.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func keysOf(s *spanner.Spanner, doc []byte) []string {
	var out []string
	s.Enumerate(doc, func(m *spanner.Match) bool {
		out = append(out, m.Key())
		return true
	})
	return out
}

func TestEnumerateReaderMatchesEnumerate(t *testing.T) {
	doc := gen.Contacts(120, 11)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		want := keysOf(s, doc)
		if len(want) == 0 {
			t.Fatal("no matches; test would be vacuous")
		}
		for _, size := range []int{1, 3, 7, 1 << 10, 1 << 20} {
			var got []string
			err := s.EnumerateReaderContext(bg, &chunkReader{data: doc, size: size}, func(m *spanner.Match) bool {
				got = append(got, m.Key())
				return true
			})
			if err != nil {
				t.Fatalf("mode %v size %d: %v", mode, size, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("mode %v chunk size %d: streaming output differs from Enumerate:\ngot  %d matches\nwant %d matches",
					mode, size, len(got), len(want))
			}
		}
	}
}

// TestAllReader checks the reader-driven enumeration end to end: the same
// matches as Enumerate, a clean early stop, and a read error surfaced as
// the returned error with no further matches.
func TestAllReader(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Contacts(30, 5)
	want := keysOf(s, doc)

	var got []string
	if err := s.EnumerateReaderContext(bg, bytes.NewReader(doc), func(m *spanner.Match) bool {
		got = append(got, m.Key())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("EnumerateReaderContext output differs from Enumerate")
	}

	// Early stop: yield returning false ends the stream cleanly with
	// exactly the matches delivered so far.
	n := 0
	if err := s.EnumerateReaderContext(bg, bytes.NewReader(doc), func(*spanner.Match) bool {
		n++
		return n < 2
	}); err != nil || n != 2 {
		t.Fatalf("early stop delivered %d matches (err %v), want 2", n, err)
	}

	boom := errors.New("boom")
	err := s.EnumerateReaderContext(bg, &errReader{data: []byte("John"), err: boom}, func(*spanner.Match) bool {
		t.Fatal("no matches must be delivered on a failed read")
		return false
	})
	if !errors.Is(err, boom) {
		t.Fatalf("read error was swallowed: err = %v, want %v", err, boom)
	}
}

func TestEnumerateReaderEmptyInput(t *testing.T) {
	s := spanner.MustCompile(`(!x{a})?`) // matches the empty document
	n := 0
	if err := s.EnumerateReaderContext(bg, strings.NewReader(""), func(*spanner.Match) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("empty input produced %d matches, want 1 (the empty mapping)", n)
	}
}

func TestEnumerateReaderPropagatesReadError(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	boom := errors.New("boom")
	err := s.EnumerateReaderContext(bg, &errReader{data: gen.Figure1Doc(), err: boom}, func(*spanner.Match) bool {
		t.Fatal("no matches must be delivered on a failed read")
		return false
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestCountReaderMatchesCount(t *testing.T) {
	doc := gen.Contacts(200, 13)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		want, exact := count(t, s, doc)
		if !exact {
			t.Fatal("contacts count must fit uint64")
		}
		for _, size := range []int{1, 17, 1 << 16} {
			big, err := s.CountBigReaderContext(bg, &chunkReader{data: doc, size: size})
			if err != nil || !big.IsUint64() || big.Uint64() != want {
				t.Fatalf("mode %v size %d: CountBigReaderContext = (%v, %v), want %d", mode, size, big, err, want)
			}
		}
	}
}

func TestCountBigReaderOverflow(t *testing.T) {
	// 12 nested variables over 60 bytes overflow uint64: the streaming
	// counter must migrate to exact big-integer arithmetic mid-stream.
	s := spanner.MustCompile(gen.NestedPattern(12))
	doc := gen.RandomDoc(60, "a", 1)
	want := s.CountBig(doc)

	if _, exact := count(t, s, doc); exact {
		t.Fatal("expected inexact uint64 count")
	}
	if want.BitLen() <= 64 {
		t.Fatalf("CountBig = %v should exceed uint64", want)
	}
	got, err := s.CountBigReaderContext(bg, &chunkReader{data: doc, size: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("CountBigReaderContext = %v, want %v", got, want)
	}
}

func TestClonedMatchesSurviveScratchReuse(t *testing.T) {
	// The buffer-ownership rule: a Cloned match stays valid forever, even
	// after the spanner's pooled scratch has evaluated other documents.
	s := spanner.MustCompile(gen.Figure1Pattern())
	type saved struct {
		m   *spanner.Match
		key string
		txt string
	}
	var all []saved
	err := s.EnumerateReaderContext(bg, &chunkReader{data: gen.Contacts(50, 17), size: 13}, func(m *spanner.Match) bool {
		c := m.Clone()
		txt, _ := c.Text("name")
		all = append(all, saved{c, c.Key(), txt})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no matches")
	}
	// Churn the pool with other documents.
	for i := 0; i < 10; i++ {
		s.Enumerate(gen.Contacts(80, int64(i)), func(*spanner.Match) bool { return true })
	}
	for i, sv := range all {
		if sv.m.Key() != sv.key {
			t.Fatalf("clone %d key corrupted: %s != %s", i, sv.m.Key(), sv.key)
		}
		if txt, _ := sv.m.Text("name"); txt != sv.txt {
			t.Fatalf("clone %d text corrupted: %q != %q", i, txt, sv.txt)
		}
	}
}

func TestConcurrentStreamingEvaluations(t *testing.T) {
	// Pool safety and lazy-mode locking under the race detector: many
	// goroutines streaming different documents through one Spanner.
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				doc := gen.Contacts(20+g, int64(g))
				want := fmt.Sprint(keysOf(s, doc))
				for i := 0; i < 5; i++ {
					var got []string
					err := s.EnumerateReaderContext(bg, &chunkReader{data: doc, size: 5}, func(m *spanner.Match) bool {
						got = append(got, m.Key())
						return true
					})
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if fmt.Sprint(got) != want {
						t.Errorf("goroutine %d iteration %d: streaming output diverged", g, i)
						return
					}
					if _, err := s.CountBigReaderContext(bg, &chunkReader{data: doc, size: 9}); err != nil {
						t.Errorf("goroutine %d: count: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestPreprocessDeferredEnumeration(t *testing.T) {
	// The deferred two-phase API the engine builds on: preprocessing and
	// enumeration at different times, repeatable, with Release recycling
	// the scratch.
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Contacts(25, 31)
	want := keysOf(s, doc)

	if len(want) == 0 {
		t.Fatal("expected matches")
	}
	ev, err := s.PreprocessContext(bg, doc)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var got []string
		ev.Enumerate(func(m *spanner.Match) bool {
			got = append(got, m.Key())
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: deferred enumeration differs from Enumerate", round)
		}
	}
	ev.Release()
	ev.Release() // idempotent

	// The pool must still hand out correct state afterwards.
	if got := keysOf(s, doc); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("enumeration after Release disagrees")
	}
}
