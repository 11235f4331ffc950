package spanner_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// AppendJSON is checked differentially against the standard library: every
// row must be byte-identical to encoding/json marshaling the map form of
// the same bindings — the shape spannerd and the CLI wrote before they
// switched to the append-based encoder.

type refSpan struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

func refJSON(t testing.TB, m *spanner.Match) []byte {
	t.Helper()
	row := make(map[string]refSpan)
	for _, b := range m.Bindings() {
		row[b.Var] = refSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
	}
	out, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkJSON enumerates doc and compares every match's AppendJSON with
// the encoding/json reference, also checking that AppendJSON keeps what
// the buffer already holds. It returns the number of matches.
func checkJSON(t testing.TB, s *spanner.Spanner, doc []byte) int {
	t.Helper()
	n := 0
	buf := []byte("prefix")
	s.Enumerate(doc, func(m *spanner.Match) bool {
		n++
		want := refJSON(t, m)
		if got := m.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("pattern %s, doc %q:\nAppendJSON    %s\nencoding/json %s", s, doc, got, want)
		}
		buf = m.AppendJSON(buf[:len("prefix")])
		if !bytes.Equal(buf, append([]byte("prefix"), want...)) {
			t.Fatalf("pattern %s, doc %q: appending after a prefix gave %s", s, doc, buf)
		}
		return true
	})
	return n
}

func TestMatchJSONAllBytes(t *testing.T) {
	s := spanner.MustCompile(`!c{.*}`)
	for b := 0; b < 256; b++ {
		if n := checkJSON(t, s, []byte{byte(b)}); n != 1 {
			t.Fatalf("byte %#x: %d matches, want 1", b, n)
		}
	}
}

func TestMatchJSONTable(t *testing.T) {
	tests := []struct {
		name    string
		pattern string
		doc     string
		want    string // the first row, spelled out; "" to skip
	}{
		{"split rune", `.*!c{.}.*`, "\xc3\xa9", `{"c":{"start":0,"end":1,"text":"\ufffd"}}`},
		{"rune and its halves", `.*!c{..?}.*`, "a\xc3\xa9b", ""},
		{"line and paragraph separators", `!x{.*}`, "a\xe2\x80\xa8b\xe2\x80\xa9c", `{"x":{"start":0,"end":9,"text":"a\u2028b\u2029c"}}`},
		{"html", `!x{.*}`, `<a href="x">&amp;</a>`, `{"x":{"start":0,"end":21,"text":"\u003ca href=\"x\"\u003e\u0026amp;\u003c/a\u003e"}}`},
		{"quotes and backslashes", `!x{.*}`, `say "hi" \ bye\\ \"`, ""},
		{"control bytes", `!x{.*}`, "\x00\x01\x1f\x7f\b\f\n\r\t", `{"x":{"start":0,"end":9,"text":"\u0000\u0001\u001f` + "\x7f" + `\b\f\n\r\t"}}`},
		{"invalid UTF-8", `!x{.*}`, "\xff\xfe\xed\xa0\x80\xf4\x90\x80\x80\xc3", ""},
		{"valid multibyte", `.*!x{.+}`, "日本 ünï 🎉", ""},
		{"empty spans", `.*!x{a*}.*`, "b", `{"x":{"start":0,"end":0,"text":""}}`},
		{"empty mapping", `a*`, "aa", `{}`},
		{"unassigned omitted", `(!x{a}|!y{b})c`, "bc", `{"y":{"start":0,"end":1,"text":"b"}}`},
		{"sorted, not registry, order", `!zeta{a}!Alpha{b}!_mid{c}!alpha{d}!a1{e}`, "abcde",
			`{"Alpha":{"start":1,"end":2,"text":"b"},"_mid":{"start":2,"end":3,"text":"c"},"a1":{"start":4,"end":5,"text":"e"},"alpha":{"start":3,"end":4,"text":"d"},"zeta":{"start":0,"end":1,"text":"a"}}`},
		{"figure 1", gen.Figure1Pattern(), string(gen.Figure1Doc()), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, opt := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
				s := spanner.MustCompile(tt.pattern, opt)
				if n := checkJSON(t, s, []byte(tt.doc)); n == 0 {
					t.Fatalf("%s over %q: no matches", tt.pattern, tt.doc)
				}
				if tt.want == "" {
					continue
				}
				var first []byte
				s.Enumerate([]byte(tt.doc), func(m *spanner.Match) bool {
					first = m.AppendJSON(nil)
					return false
				})
				if string(first) != tt.want {
					t.Fatalf("first row = %s, want %s", first, tt.want)
				}
			}
		})
	}
}

// jsonFuzzPatterns cover whole-document text, every split point (which
// cuts multibyte runes), optional variables and a sorted order that
// differs from registry order.
var jsonFuzzPatterns = []*spanner.Spanner{
	spanner.MustCompile(`!x{.*}`),
	spanner.MustCompile(`!zeta{.*}!alpha{.*}`),
	spanner.MustCompile(`.*(!b{.}|!a{..}).*`),
}

// FuzzMatchJSON checks AppendJSON against encoding/json over arbitrary
// span text.
func FuzzMatchJSON(f *testing.F) {
	for _, seed := range []string{
		"", "plain", "\xc3\xa9", "a\xe2\x80\xa8b\xe2\x80\xa9", `<&>"\`,
		"\x00\x1f\x7f\b\f\n\r\t", "\xff\xed\xa0\x80\xf4\x90\x80\x80", "日本 🎉",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if len(doc) > 256 {
			doc = doc[:256]
		}
		for _, s := range jsonFuzzPatterns {
			checkJSON(t, s, doc)
		}
	})
}

// TestMatchAppendJSONAllocs pins the warm row path: appending into a
// buffer with room to spare allocates nothing, escapes included.
func TestMatchAppendJSONAllocs(t *testing.T) {
	for _, tc := range []struct{ pattern, doc string }{
		{gen.Figure1Pattern(), string(gen.Figure1Doc())},
		{`!zeta{.*}!alpha{.*}`, "<&>\"\\\x01\xff\xe2\x80\xa8\xc3\xa9 plain text"},
	} {
		s := spanner.MustCompile(tc.pattern)
		buf := make([]byte, 0, 4096)
		rows := 0
		s.Enumerate([]byte(tc.doc), func(m *spanner.Match) bool {
			rows++
			if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendJSON(buf[:0]) }); allocs != 0 {
				t.Fatalf("%s: AppendJSON allocated %v times per row", tc.pattern, allocs)
			}
			return true
		})
		if rows == 0 {
			t.Fatalf("%s: no matches", tc.pattern)
		}
	}
}
