package spanner

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"spanners/internal/core"
	"spanners/internal/model"
)

// Span is a half-open byte range [Start, End) in a document, using 0-based
// offsets (the paper's 1-based span [i, j⟩ maps to [i-1, j-1)).
type Span struct {
	Start, End int
}

// Len returns End - Start.
func (s Span) Len() int { return s.End - s.Start }

// String renders the span as "[start,end)".
func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Start, s.End) }

// Binding is one variable assignment of a match.
type Binding struct {
	Var  string
	Span Span
	Text string
}

// Match is one output mapping: a partial assignment of the pattern's
// capture variables to spans of the document. Matches handed to an
// enumeration's yield are reused scratch buffers; Clone to retain.
type Match struct {
	doc   []byte
	names []string
	reg   *model.Registry
	keys  *jsonKeys    // the Spanner's AppendJSON key layout
	spans []model.Span // 1-based; zero Span = variable unassigned
}

// Vars returns the names of all pattern variables (assigned or not) in
// registry order. The slice is shared; do not mutate.
func (m *Match) Vars() []string { return m.names }

// Span returns the span assigned to the named variable and whether the
// variable is assigned in this match.
func (m *Match) Span(name string) (Span, bool) {
	v, ok := m.reg.Lookup(name)
	if !ok {
		return Span{}, false
	}
	s := m.spans[v]
	if s.IsZero() {
		return Span{}, false
	}
	return Span{Start: s.Start - 1, End: s.End - 1}, true
}

// Text returns the document content of the named variable's span.
func (m *Match) Text(name string) (string, bool) {
	v, ok := m.reg.Lookup(name)
	if !ok {
		return "", false
	}
	s := m.spans[v]
	if s.IsZero() {
		return "", false
	}
	return s.Text(m.doc), true
}

// Bindings returns the assigned variables with their spans and contents, in
// registry order.
func (m *Match) Bindings() []Binding {
	out := make([]Binding, 0, len(m.spans))
	for v, s := range m.spans {
		if s.IsZero() {
			continue
		}
		out = append(out, Binding{
			Var:  m.names[v],
			Span: Span{Start: s.Start - 1, End: s.End - 1},
			Text: s.Text(m.doc),
		})
	}
	return out
}

// Clone returns an independent copy of the match.
func (m *Match) Clone() *Match {
	c := *m
	c.spans = slices.Clone(m.spans)
	return &c
}

// Key returns a canonical encoding of the match — assigned variables in
// lexicographic order with 0-based spans. Two matches over the same
// document are equal exactly when their keys are equal.
func (m *Match) Key() string {
	bs := m.Bindings()
	sort.Slice(bs, func(i, j int) bool { return bs[i].Var < bs[j].Var })
	var b strings.Builder
	for i, bd := range bs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s=%s", bd.Var, bd.Span)
	}
	return b.String()
}

// String renders the match like "{user=[0,4) "John"}".
func (m *Match) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, bd := range m.Bindings() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s %q", bd.Var, bd.Span, bd.Text)
	}
	b.WriteByte('}')
	return b.String()
}

// iterator is the constant-delay pull iterator over the matches of one
// preprocessed document (Algorithm 2): each next performs O(ℓ) work in the
// number of variables, independent of the document length, and returns
// the same scratch Match refilled.
type iterator struct {
	it *core.Iterator
	m  *Match
}

func (s *Spanner) iterator(res *core.Result) *iterator {
	m := &Match{doc: res.Document(), names: s.vars, reg: res.Registry(), keys: s.keys,
		spans: make([]model.Span, len(s.vars))}
	return &iterator{it: res.Iterator(), m: m}
}

func (it *iterator) next() (*Match, bool) {
	mm, ok := it.it.Next()
	if !ok {
		return nil, false
	}
	for v := range it.m.spans {
		sp, assigned := mm.Get(model.Var(v))
		if !assigned {
			sp = model.Span{}
		}
		it.m.spans[v] = sp
	}
	return it.m, true
}
