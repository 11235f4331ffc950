package gen_test

import (
	"bytes"
	"context"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// The generators are the benchmark and CLI workloads; these tests pin their
// shape and drive each one end-to-end through the public facade.

// count runs the facade's counting pass over doc.
func count(t *testing.T, s *spanner.Spanner, doc []byte) (uint64, bool) {
	t.Helper()
	n, exact, err := s.CountContext(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	return n, exact
}

func TestFigure1PatternExtractsFigure1Doc(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	var rows []string
	s.Enumerate(gen.Figure1Doc(), func(m *spanner.Match) bool {
		name, _ := m.Text("name")
		email, _ := m.Text("email")
		phone, _ := m.Text("phone")
		rows = append(rows, name+"/"+email+phone)
		return true
	})
	if len(rows) != 2 {
		t.Fatalf("matches = %v, want the two mappings of Figure 1", rows)
	}
	seen := map[string]bool{rows[0]: true, rows[1]: true}
	if !seen["John/j@g.be"] || !seen["Jane/555-12"] {
		t.Fatalf("matches = %v", rows)
	}
}

func TestContactsMatchesFigure1Pattern(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Contacts(25, 42)
	n, exact := count(t, s, doc)
	if !exact || n < 25 {
		t.Fatalf("Count = %d (exact=%v): every contact entry must match", n, exact)
	}
	if !bytes.Equal(gen.Contacts(25, 42), doc) {
		t.Fatal("Contacts must be deterministic per seed")
	}
	if bytes.Equal(gen.Contacts(25, 43), doc) {
		t.Fatal("Contacts must vary with the seed")
	}
}

func TestLogDocFieldExtraction(t *testing.T) {
	s := spanner.MustCompile(`.*"!method{[A-Z]+} !path{/[^"]*}".*`)
	doc := gen.LogDoc(10, 7)
	lines := bytes.Count(doc, []byte("\n"))
	n, exact := count(t, s, doc)
	if !exact || n < uint64(lines) {
		t.Fatalf("Count = %d (exact=%v) on %d log lines", n, exact, lines)
	}
	found := false
	s.Enumerate(doc, func(m *spanner.Match) bool {
		method, _ := m.Text("method")
		path, _ := m.Text("path")
		switch method {
		case "GET", "POST", "PUT", "DELETE":
			found = true
		default:
			t.Errorf("unexpected method %q (path %q)", method, path)
		}
		return false // one match suffices
	})
	if !found {
		t.Fatal("no method extracted")
	}
}

func TestNestedPatternCompilesAndCounts(t *testing.T) {
	s := spanner.MustCompile(gen.NestedPattern(2))
	// Ω(|d|²) outputs: on "aaaa" the count is the closed form checked by
	// the core tests; here just pin that it is large and exact.
	n, exact := count(t, s, gen.Repeat("a", 4))
	if !exact || n == 0 {
		t.Fatalf("Count = %d (exact=%v)", n, exact)
	}
}

func TestSparseMatchesShape(t *testing.T) {
	doc := gen.SparseMatches(1<<16, 0.001, 7)
	if len(doc) != 1<<16 {
		t.Fatalf("len = %d", len(doc))
	}
	if !bytes.Equal(doc, gen.SparseMatches(1<<16, 0.001, 7)) {
		t.Fatal("SparseMatches must be deterministic per seed")
	}
	s := spanner.MustCompile(gen.SparsePattern)
	n, exact := count(t, s, doc)
	if !exact || n == 0 {
		t.Fatalf("Count = %d (exact=%v): planted occurrences must match", n, exact)
	}
	// Zero density must mean zero candidates: the filler alphabet avoids
	// the literal's lead byte entirely.
	empty := gen.SparseMatches(1<<14, 0, 7)
	if bytes.IndexByte(empty, 'w') >= 0 {
		t.Fatal("filler must not contain the literal lead byte")
	}
	if n, _ := count(t, s, empty); n != 0 {
		t.Fatal("density-0 corpus must have no matches")
	}
	// The adversarial corpus is candidate-dense by construction.
	adv := gen.DenseCandidates(1<<14, 7)
	if c := bytes.Count(adv, []byte{'w'}); c < len(adv)/4 {
		t.Fatalf("DenseCandidates only %d/%d 'w' bytes", c, len(adv))
	}
}

func TestCensusAndRandomDocShapes(t *testing.T) {
	if got := gen.CensusDoc(3); string(got) != "#cc#cc#cc" {
		t.Fatalf("CensusDoc(3) = %q", got)
	}
	d := gen.RandomDoc(100, "ab", 1)
	if len(d) != 100 {
		t.Fatalf("len = %d", len(d))
	}
	for _, c := range d {
		if c != 'a' && c != 'b' {
			t.Fatalf("byte %q outside alphabet", c)
		}
	}
	if len(gen.VarNames(3)) != 3 {
		t.Fatal("VarNames(3) must have 3 names")
	}
}
