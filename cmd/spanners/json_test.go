package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// refJSONRows renders what -json printed when each row was a struct with
// an omitempty "file" member and a map of spans run through
// encoding/json: the byte-for-byte reference for the append-based rows.
func refJSONRows(t *testing.T, pattern string, files []string, docs [][]byte, prefix bool) string {
	t.Helper()
	type span struct {
		Start int    `json:"start"`
		End   int    `json:"end"`
		Text  string `json:"text"`
	}
	sp := spanner.MustCompile(pattern)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for i, doc := range docs {
		sp.Enumerate(doc, func(m *spanner.Match) bool {
			row := struct {
				File  string          `json:"file,omitempty"`
				Spans map[string]span `json:"spans"`
			}{Spans: make(map[string]span)}
			if prefix {
				row.File = files[i]
			}
			for _, b := range m.Bindings() {
				row.Spans[b.Var] = span{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
			}
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	return out.String()
}

// TestCLIJSONByteIdentical pins -json output to the encoding/json rows, on
// stdin, on one file and on several files (serial and -j), with a file
// name and span text that need escaping: quotes, backslashes, <>&, a
// control byte, invalid UTF-8 and U+2028.
func TestCLIJSONByteIdentical(t *testing.T) {
	const pattern = `.*!zeta{.}!alpha{.?}.*`
	weird := []byte("a\"b\\<c>&\x01\xff\xe2\x80\xa8\xc3\xa9")
	docs := [][]byte{weird, gen.Figure1Doc(), []byte("x")}
	files := []string{
		writeTemp(t, "we\"ird <&> \\ \x01\xff\xe2\x80\xa8.txt", docs[0]),
		writeTemp(t, "fig1.txt", docs[1]),
		writeTemp(t, "x.txt", docs[2]),
	}

	out, _, code := runCLI(t, string(weird), "-json", pattern)
	if want := refJSONRows(t, pattern, []string{"-"}, docs[:1], false); code != 0 || out != want {
		t.Fatalf("stdin: exit %d, output\n%s\nwant\n%s", code, out, want)
	}
	out, _, code = runCLI(t, "", "-json", pattern, files[0])
	if want := refJSONRows(t, pattern, files[:1], docs[:1], false); code != 0 || out != want {
		t.Fatalf("one file: exit %d, output\n%s\nwant\n%s", code, out, want)
	}
	want := refJSONRows(t, pattern, files, docs, true)
	for _, esc := range []string{`\"`, `\\`, `\u003c`, `\u0026`, `\u0001`, `\ufffd`, `\u2028`} {
		if !strings.Contains(want, `"file":"`) || !strings.Contains(want, esc) {
			t.Fatalf("reference rows lack a file member or the escape %s:\n%s", esc, want)
		}
	}
	for _, jobs := range []string{"1", "2"} {
		out, _, code = runCLI(t, "", append([]string{"-json", "-j", jobs, pattern}, files...)...)
		if code != 0 || out != want {
			t.Fatalf("-j %s over %d files: exit %d, output\n%s\nwant\n%s", jobs, len(files), code, out, want)
		}
	}
}
