package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// refBody renders the enumerate response the handler wrote when every row
// was a wireRow run through json.Encoder: the byte-for-byte reference for
// the append-based row writer. The spanner is compiled strict, so its
// enumeration order is the one the server's strict spanner produces.
func refBody(t *testing.T, query string, docs []string) string {
	t.Helper()
	q, err := spanner.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := q.Compile(spanner.WithStrict())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	tr := trailer{Trailer: true, Docs: len(docs), DocsProcessed: len(docs)}
	for i, doc := range docs {
		sp.Enumerate([]byte(doc), func(m *spanner.Match) bool {
			row := wireRow{Doc: i, Spans: make(map[string]wireSpan)}
			for _, b := range m.Bindings() {
				row.Spans[b.Var] = wireSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
			}
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
			tr.Matches++
			return true
		})
	}
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestEnumerateBodyMatchesEncodingJSON compares whole enumerate response
// bodies with the encoding/json reference on the single-document, batch
// and ?corpus= paths, over span text that needs escaping (quotes,
// backslashes, <>&, control bytes, U+2028/2029, halves of a multibyte
// rune) and rows long enough to cross the write threshold many times.
func TestEnumerateBodyMatchesEncodingJSON(t *testing.T) {
	ts := testServer(t, serverConfig{})
	weird := "say \"hi\" \\ <b>&amp;</b>\x01\x1f\t\n é\xe2\x80\xa8x\xe2\x80\xa9 日本"
	splitQuery := `/.*!zeta{.}!Alpha{.?}.*/`
	cases := []struct {
		name  string
		query string
		docs  []string
	}{
		{"single escapes", splitQuery, []string{weird}},
		{"single contacts", testQuery, []string{string(gen.Contacts(300, 3))}},
		{"batch", splitQuery, []string{weird, "", strings.Repeat(weird, 20), "plain"}},
		{"batch contacts", testQuery, []string{string(gen.Contacts(40, 1)), "none", string(gen.Figure1Doc())}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refBody(t, tc.query, tc.docs)
			code, body := post(t, ts, "/v1/enumerate", map[string]any{
				"query": tc.query, "docs": tc.docs, "mode": "strict",
			})
			if code != http.StatusOK || body != want {
				t.Fatalf("status %d, body diverges from encoding/json\ngot  %s\nwant %s", code, body, want)
			}

			name := fmt.Sprintf("rows%d", i)
			registerCorpus(t, ts, name, tc.docs, 3)
			resp := postRaw(t, ts, "/v1/enumerate?corpus="+name, map[string]any{
				"query": tc.query, "mode": "strict",
			})
			if body := readAll(t, resp); resp.StatusCode != http.StatusOK || body != want {
				t.Fatalf("corpus: status %d, body diverges from encoding/json\ngot  %s\nwant %s", resp.StatusCode, body, want)
			}
		})
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so allocation
// counts measure the handler alone.
type discardResponse struct {
	h     http.Header
	bytes int
}

func (w *discardResponse) Header() http.Header { return w.h }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Flush()              {}
func (w *discardResponse) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// TestEnumerateAllocsFlatInMatches pins the warm row path of
// /v1/enumerate: a 2,000-row response allocates about as much as a
// 200-row one. Only per-request costs remain (decoding, buffers that grow
// with the document, the trailer), so ten times the rows may add a few
// allocations but nowhere near one per row.
func TestEnumerateAllocsFlatInMatches(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: spanner.ModeStrict})
	allocs := func(contacts int) float64 {
		body, err := json.Marshal(map[string]any{
			"query": testQuery,
			"docs":  []string{string(gen.Contacts(contacts, 7))},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{h: make(http.Header)}
		serve := func() {
			clear(w.h)
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/enumerate", bytes.NewReader(body)))
		}
		serve()
		if w.bytes < 50*contacts {
			t.Fatalf("%d contacts: only %d response bytes", contacts, w.bytes)
		}
		return testing.AllocsPerRun(20, serve)
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("allocations per request: %.0f at 200 rows, %.0f at 2,000 rows", small, large)
	if large-small > 50 {
		t.Fatalf("2,000 rows allocate %.0f times per request, 200 rows %.0f: the row path allocates per match", large, small)
	}
}

// BenchmarkServeEnumerate is the end-to-end serving benchmark: one
// POST /v1/enumerate round trip through httptest of a gen.Contacts(2000)
// document with the Figure 1 query — decoding, the cached-spanner lookup,
// the Algorithm 1 pass, enumeration, row encoding and the HTTP transfer.
// MB/s is document bytes; ns/match divides the round trip by the rows.
func BenchmarkServeEnumerate(b *testing.B) {
	ts := httptest.NewServer(newServer(serverConfig{defaultMode: spanner.ModeLazy}))
	defer ts.Close()
	doc := gen.Contacts(2000, 7)
	body, err := json.Marshal(map[string]any{"query": testQuery, "docs": []string{string(doc)}})
	if err != nil {
		b.Fatal(err)
	}
	roundTrip := func() int64 {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
		return n
	}
	roundTrip() // compile the query into the cache
	var rows int
	sp := spanner.MustCompile(gen.Figure1Pattern())
	sp.Enumerate(doc, func(*spanner.Match) bool { rows++; return true })
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/match")
}
