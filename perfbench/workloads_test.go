package main

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"spanners/spanner"
)

func testEnumExpect(t *testing.T) (*enumExpect, []byte) {
	t.Helper()
	sp, err := compileLazy(`/.*!x{a+}!y{b}.*/`)
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{[]byte("aab"), []byte("c"), []byte("ab")}
	e := enumReference(sp, docs)
	// spannerd's encoding of the same rows (json.Encoder sorts map keys).
	rows := `{"doc":0,"spans":{"x":{"start":0,"end":2,"text":"aa"},"y":{"start":2,"end":3,"text":"b"}}}
{"doc":0,"spans":{"x":{"start":1,"end":2,"text":"a"},"y":{"start":2,"end":3,"text":"b"}}}
{"doc":2,"spans":{"x":{"start":0,"end":1,"text":"a"},"y":{"start":1,"end":2,"text":"b"}}}
`
	return e, []byte(rows)
}

func trailerLine(docs, processed, skipped int, matches int64, extra string) string {
	return `{"trailer":true,"docs":` + strconv.Itoa(docs) + `,"docs_processed":` + strconv.Itoa(processed) +
		`,"docs_skipped":` + strconv.Itoa(skipped) + `,"matches":` + strconv.FormatInt(matches, 10) + extra + "}\n"
}

func TestEnumExpectAcceptsTheLibraryRows(t *testing.T) {
	e, rows := testEnumExpect(t)
	if e.rows != 3 || e.docs != 3 {
		t.Fatalf("reference has %d rows over %d docs, want 3 over 3", e.rows, e.docs)
	}
	body := append(bytes.Clone(rows), trailerLine(3, 3, 0, 3, "")...)
	if err := e.check(200, body); err != nil {
		t.Errorf("byte-identical response rejected: %v", err)
	}
}

func TestEnumExpectSlowPathAcceptsOtherEncodings(t *testing.T) {
	e, _ := testEnumExpect(t)
	// Same rows, different key order, whitespace and row order.
	rows := `{"spans":{"y":{"text":"b","start":2,"end":3},"x":{"start":1,"end":2,"text":"a"}},"doc":0}
{"doc":2, "spans":{"x":{"start":0,"end":1,"text":"a"},"y":{"start":1,"end":2,"text":"b"}}}
{"doc":0,"spans":{"x":{"start":0,"end":2,"text":"aa"},"y":{"start":2,"end":3,"text":"b"}}}
`
	body := []byte(rows + trailerLine(3, 3, 0, 3, ""))
	if err := e.check(200, body); err != nil {
		t.Fatalf("reordered response rejected: %v", err)
	}
	if !e.accepted[digestOf([]byte(rows))] {
		t.Error("a checked encoding was not remembered")
	}
}

func TestEnumExpectRejects(t *testing.T) {
	_, rows := testEnumExpect(t)
	wrongRow := bytes.Replace(rows, []byte(`"text":"aa"`), []byte(`"text":"ab"`), 1)
	for name, tc := range map[string]struct {
		status int
		body   string
	}{
		"status":          {500, string(rows) + trailerLine(3, 3, 0, 3, "")},
		"truncated":       {200, string(rows[:len(rows)-20])},
		"no trailer":      {200, string(rows)},
		"trailer error":   {200, string(rows) + trailerLine(3, 3, 0, 3, `,"error":"context deadline exceeded"`)},
		"accounting":      {200, string(rows) + trailerLine(3, 2, 0, 3, "")},
		"skipped docs":    {200, string(rows) + trailerLine(3, 2, 1, 3, "")},
		"match count":     {200, string(rows) + trailerLine(3, 3, 0, 4, "")},
		"truncated limit": {200, string(rows) + trailerLine(3, 3, 0, 3, `,"truncated":true`)},
		"wrong row":       {200, string(wrongRow) + trailerLine(3, 3, 0, 3, "")},
		"missing row":     {200, string(rows[bytes.IndexByte(rows, '\n')+1:]) + trailerLine(3, 3, 0, 3, "")},
	} {
		e, _ := testEnumExpect(t)
		if err := e.check(tc.status, []byte(tc.body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCountExpect(t *testing.T) {
	sp := spanner.MustCompileQuery(`/.*!x{a}.*/`)
	e := countReference(sp, [][]byte{[]byte("aa"), []byte("b")})
	if err := e.check(200, []byte(`{"counts":[{"count":"2","exact":true},{"count":"0","exact":true}]}`)); err != nil {
		t.Errorf("correct counts rejected: %v", err)
	}
	for _, body := range []string{
		`{"counts":[{"count":"2","exact":true}]}`,
		`{"counts":[{"count":"2","exact":true},{"count":"1","exact":true}]}`,
		`{"counts":[{"count":"2","exact":false},{"count":"0","exact":true}]}`,
		`{"counts":`,
	} {
		if err := e.check(200, []byte(body)); err == nil {
			t.Errorf("accepted %s", body)
		}
	}
	if err := e.check(504, []byte(`{"error":"deadline"}`)); err == nil {
		t.Error("accepted a 504")
	}
}

func TestChurnQueriesOutnumberTheCache(t *testing.T) {
	qs := churnQueries(7)
	seen := map[string]bool{}
	for _, q := range qs {
		canon, err := spanner.ParseQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		seen[canon.String()] = true
	}
	if len(seen) != churnPool || churnPool <= 256 {
		t.Errorf("%d distinct canonical queries, want %d (> the 256-entry cache)", len(seen), churnPool)
	}
	if other := churnQueries(8); slices.Equal(qs, other) {
		t.Error("the seed does not change the order")
	}
}

func TestWorkloadsAreFound(t *testing.T) {
	for _, name := range []string{"enumerate_contacts", "sparse_corpus", "query_churn"} {
		if _, ok := findWorkload(name); !ok {
			t.Errorf("workload %s missing", name)
		}
	}
	if _, ok := findWorkload("nope"); ok {
		t.Error("found an unknown workload")
	}
}
