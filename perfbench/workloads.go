package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"spanners/internal/gen"
	"spanners/spanner"
)

// corpusName is the name sparse_corpus registers its documents under.
const corpusName = "bench"

// workload is one named traffic mix.
type workload struct {
	name string
	// build generates the workload's inputs from seed and computes, with
	// the library, the reference every response is checked against.
	build func(seed int64) (*inputs, error)
}

var workloads = []workload{
	{"enumerate_contacts", buildEnumerateContacts},
	{"sparse_corpus", buildSparseCorpus},
	{"query_churn", buildQueryChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are one workload's generated traffic.
type inputs struct {
	// docs are the documents the traffic evaluates: the request documents,
	// or the registered corpus when corpusBody is set.
	docs [][]byte
	// corpusBody registers docs as corpus corpusName; nil when the
	// workload sends its documents in each request.
	corpusBody []byte
	// reqs is the traffic, sent in order and cycled.
	reqs []*request
}

// docBytes is the total size of the workload's documents.
func (in *inputs) docBytes() int64 { return totalBytes(in.docs) }

func totalBytes(docs [][]byte) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d))
	}
	return n
}

// request is one pre-encoded HTTP request and the reference its response
// must match.
type request struct {
	path  string // URL path and query string
	query string // the query text in the body
	body  []byte
	want  expect
}

// expect checks one response.
type expect interface {
	check(status int, body []byte) error
}

// newRequest encodes a request body for path.
func newRequest(path, query string, docs [][]byte, want expect) (*request, error) {
	body := struct {
		Query string   `json:"query"`
		Docs  []string `json:"docs,omitempty"`
	}{Query: query, Docs: make([]string, len(docs))}
	for i, d := range docs {
		body.Docs[i] = string(d)
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return &request{path: path, query: query, body: b, want: want}, nil
}

// compileLazy compiles a query expression the way spannerd does by
// default.
func compileLazy(query string) (*spanner.Spanner, error) {
	q, err := spanner.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return q.Compile(spanner.WithLazy())
}

// figure1Query is the paper's running example as a query literal.
func figure1Query() string { return "/" + gen.Figure1Pattern() + "/" }

func buildEnumerateContacts(seed int64) (*inputs, error) {
	q := figure1Query()
	docs := [][]byte{gen.Contacts(2000, seed)}
	sp, err := compileLazy(q)
	if err != nil {
		return nil, err
	}
	req, err := newRequest("/v1/enumerate", q, docs, enumReference(sp, docs))
	if err != nil {
		return nil, err
	}
	return &inputs{docs: docs, reqs: []*request{req}}, nil
}

func buildSparseCorpus(seed int64) (*inputs, error) {
	q := "/" + gen.SparsePattern + "/"
	docs := make([][]byte, 64)
	for i := range docs {
		docs[i] = gen.SparseMatches(256<<10, 1e-5, seed+int64(i))
	}
	sp, err := compileLazy(q)
	if err != nil {
		return nil, err
	}
	req, err := newRequest("/v1/enumerate?corpus="+corpusName, q, nil, enumReference(sp, docs))
	if err != nil {
		return nil, err
	}
	reg := struct {
		Docs []string `json:"docs"`
	}{Docs: make([]string, len(docs))}
	for i, d := range docs {
		reg.Docs[i] = string(d)
	}
	body, err := json.Marshal(reg)
	if err != nil {
		return nil, fmt.Errorf("encoding corpus: %w", err)
	}
	return &inputs{docs: docs, corpusBody: body, reqs: []*request{req}}, nil
}

// churnPool is the number of distinct query texts query_churn cycles
// through: twice spannerd's default 256-entry cache, so that cycling in a
// fixed order misses the LRU cache on every request.
const churnPool = 512

// Sub-patterns query_churn combines into distinct variants of the Figure 1
// formula: every combination is a different query text with its own
// automaton.
var (
	churnNames = []string{
		`[A-Z][a-z]+`, `[A-Z][a-z][a-z]+`, `[A-Z][a-z]*`, `[A-Z][a-z]+[a-z]?`,
		`[A-Z][a-z]?[a-z]?[a-z]+`, `[A-Z]([a-z][a-z])*[a-z]?`,
		`[A-Z][a-z][a-z]?[a-z]?[a-z]?[a-z]?[a-z]?[a-z]?[a-z]?`, `[A-Z][b-z]*[a-z]+`,
	}
	churnEmails = []string{
		`[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+`, `[a-z]+@[a-z]+\.[a-z]+`,
		`[a-z]+@[a-z]+\.[a-z][a-z][a-z]?`, `[a-z0-9]+@[a-z]+(\.[a-z]+)*`,
		`[^@<>]+@[^@<>.]+\.[a-z]+`, `[a-z][a-z]*@[a-z]+\.[a-z]+`,
		`[a-z]+@([a-z]+\.)+[a-z]+`, `[a-m]*[n-z]*@[a-z]+\.[a-z]+`,
	}
	churnPhones = []string{
		`[0-9]+-[0-9]+`, `[0-9][0-9]+-[0-9]+`, `[0-9]+-[0-9][0-9][0-9]?[0-9]?[0-9]?`,
		`[0-9]*-[0-9]+`, `[0-9][0-9]?[0-9]?[0-9]?-[0-9]+`, `([0-9][0-9])+-[0-9]+`,
		`[0-9]+-([0-9][0-9])+`, `[0-4]*[0-9]+-[0-9]+`,
	}
)

// churnQueries returns the churnPool distinct query texts in an order
// shuffled by seed.
func churnQueries(seed int64) []string {
	qs := make([]string, 0, churnPool)
	for _, n := range churnNames {
		for _, e := range churnEmails {
			for _, p := range churnPhones {
				qs = append(qs, `/.*!name{`+n+`} <(!email{`+e+`}|!phone{`+p+`})>.*/`)
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func buildQueryChurn(seed int64) (*inputs, error) {
	docs := [][]byte{gen.Contacts(50, seed)}
	in := &inputs{docs: docs}
	for _, q := range churnQueries(seed) {
		sp, err := compileLazy(q)
		if err != nil {
			return nil, fmt.Errorf("churn query %s: %w", q, err)
		}
		req, err := newRequest("/v1/count", q, docs, countReference(sp, docs))
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, req)
	}
	return in, nil
}

// wireSpan and wireRow mirror spannerd's NDJSON row encoding.
type wireSpan struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

type wireRow struct {
	Doc   int                 `json:"doc"`
	Spans map[string]wireSpan `json:"spans"`
}

// wireTrailer is the last line of an enumerate response.
type wireTrailer struct {
	Trailer       bool   `json:"trailer"`
	Docs          int    `json:"docs"`
	DocsProcessed int    `json:"docs_processed"`
	DocsSkipped   int    `json:"docs_skipped"`
	Matches       int64  `json:"matches"`
	Truncated     bool   `json:"truncated"`
	Error         string `json:"error"`
}

// canonical renders a row independently of key order and whitespace, for
// the slow-path comparison.
func (r wireRow) canonical() string {
	vars := make([]string, 0, len(r.Spans))
	for v := range r.Spans {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	var b strings.Builder
	b.WriteString(strconv.Itoa(r.Doc))
	for _, v := range vars {
		s := r.Spans[v]
		fmt.Fprintf(&b, " %s=[%d,%d)%q", v, s.Start, s.End, s.Text)
	}
	return b.String()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest identifies a run of row bytes: its length and CRC-32C.
type digest struct {
	n   int
	crc uint32
}

func digestOf(b []byte) digest { return digest{len(b), crc32.Checksum(b, castagnoli)} }

// enumExpect is the reference for an enumerate response: the rows the
// library enumerates, in order, for every document.
type enumExpect struct {
	docs  int
	rows  int64
	canon []string // sorted canonical rows
	// accepted holds the digests of row sections known to be correct:
	// the library's own encoding, plus any other encoding of the same
	// rows a response has already been checked to carry. A digest match
	// keeps the client's checking cost far below the daemon's.
	accepted map[digest]bool
}

// enumReference enumerates docs in order with the library and encodes
// the rows the way spannerd does.
func enumReference(sp *spanner.Spanner, docs [][]byte) *enumExpect {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	e := &enumExpect{docs: len(docs), accepted: map[digest]bool{}}
	for i, d := range docs {
		sp.Enumerate(d, func(m *spanner.Match) bool {
			row := wireRow{Doc: i, Spans: map[string]wireSpan{}}
			for _, b := range m.Bindings() {
				row.Spans[b.Var] = wireSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
			}
			_ = enc.Encode(row) // encoding into a bytes.Buffer cannot fail
			e.canon = append(e.canon, row.canonical())
			e.rows++
			return true
		})
	}
	slices.Sort(e.canon)
	e.accepted[digestOf(buf.Bytes())] = true
	return e
}

func (e *enumExpect) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return errors.New("truncated stream: no final newline")
	}
	cut := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	rows, last := body[:cut], body[cut:]
	var tr wireTrailer
	if err := json.Unmarshal(last, &tr); err != nil || !tr.Trailer {
		return fmt.Errorf("truncated stream: last line is not a trailer: %.200s", last)
	}
	switch {
	case tr.Error != "":
		return fmt.Errorf("trailer reports an error: %s", tr.Error)
	case tr.DocsProcessed+tr.DocsSkipped != tr.Docs:
		return fmt.Errorf("trailer accounting: processed %d + skipped %d != docs %d", tr.DocsProcessed, tr.DocsSkipped, tr.Docs)
	case tr.Docs != e.docs || tr.DocsProcessed != e.docs:
		return fmt.Errorf("trailer: docs %d, processed %d; want %d of %d", tr.Docs, tr.DocsProcessed, e.docs, e.docs)
	case tr.Matches != e.rows || tr.Truncated:
		return fmt.Errorf("trailer: %d matches (truncated %v); want %d", tr.Matches, tr.Truncated, e.rows)
	}
	d := digestOf(rows)
	if e.accepted[d] {
		return nil
	}
	if err := e.compareRows(rows); err != nil {
		return err
	}
	e.accepted[d] = true
	return nil
}

// compareRows is the slow path: decode every row and compare the set of
// rows with the reference, ignoring key order and row order.
func (e *enumExpect) compareRows(rows []byte) error {
	var got []string
	for line := range bytes.Lines(rows) {
		var r wireRow
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("row %d: %w", len(got), err)
		}
		got = append(got, r.canonical())
	}
	if len(got) != len(e.canon) {
		return fmt.Errorf("%d rows, want %d", len(got), len(e.canon))
	}
	slices.Sort(got)
	for i := range got {
		if got[i] != e.canon[i] {
			return fmt.Errorf("row %q differs from the reference %q", got[i], e.canon[i])
		}
	}
	return nil
}

// countExpect is the reference for a count response: each document's
// exact count from Spanner.CountBig.
type countExpect struct {
	counts []string
}

func countReference(sp *spanner.Spanner, docs [][]byte) *countExpect {
	e := &countExpect{counts: make([]string, len(docs))}
	for i, d := range docs {
		e.counts[i] = sp.CountBig(d).String()
	}
	return e
}

func (e *countExpect) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp struct {
		Counts []struct {
			Count string `json:"count"`
			Exact bool   `json:"exact"`
		} `json:"counts"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding count response: %w", err)
	}
	if len(resp.Counts) != len(e.counts) {
		return fmt.Errorf("%d counts, want %d", len(resp.Counts), len(e.counts))
	}
	for i, c := range resp.Counts {
		if c.Count != e.counts[i] || !c.Exact {
			return fmt.Errorf("doc %d: count %s (exact %v), want %s", i, c.Count, c.Exact, e.counts[i])
		}
	}
	return nil
}
