package spanner

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// jsonKeys is the per-Spanner half of Match.AppendJSON, computed once at
// compile time: the variables in sorted name order (the order
// encoding/json gives map keys) and, for each, its key already escaped
// and followed by the opening of the span object.
type jsonKeys struct {
	order  []int    // variable indices, sorted by name
	prefix [][]byte // prefix[k] is `"<name of order[k]>":{"start":`
}

func newJSONKeys(names []string) *jsonKeys {
	k := &jsonKeys{order: make([]int, len(names)), prefix: make([][]byte, len(names))}
	for v := range k.order {
		k.order[v] = v
	}
	slices.SortFunc(k.order, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	for i, v := range k.order {
		p := appendJSONString(nil, []byte(names[v]))
		k.prefix[i] = append(p, `:{"start":`...)
	}
	return k
}

// AppendJSON appends the match as a JSON object to dst and returns the
// extended buffer. The object maps each assigned variable to
// {"start":S,"end":E,"text":T}: 0-based half-open byte offsets and the
// covered document text. Variables appear in sorted name order and
// unassigned ones are omitted, so the empty mapping is {}. The bytes are
// exactly what encoding/json writes for a
// map[string]struct{Start, End int; Text string} of the same bindings
// (with the fields tagged "start", "end" and "text"), HTML escaping and
// invalid-UTF-8 replacement included.
//
// The key order and escaped keys are computed once per Spanner, and the
// text is escaped straight from the document bytes, so appending into a
// buffer with room to spare allocates nothing. TestMatchAppendJSONAllocs
// pins that at run time: hotalloc would flag every append to dst, so the
// method carries no spanlint:hotpath marker.
func (m *Match) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	first := true
	for i, v := range m.keys.order {
		s := m.spans[v]
		if s.IsZero() {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, m.keys.prefix[i]...)
		dst = strconv.AppendInt(dst, int64(s.Start-1), 10)
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, int64(s.End-1), 10)
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, m.doc[s.Start-1:s.End-1])
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// jsonSafe[b] reports whether the ASCII byte b is written unescaped inside
// a JSON string: printable ASCII other than the quote, the backslash and
// the HTML-sensitive <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s to dst as a quoted JSON string, escaped by
// encoding/json's rules with HTML escaping on: \" and \\; \b \f \n \r \t;
// other control bytes and <, >, & as \u00XX; each byte of invalid UTF-8
// as \ufffd; and U+2028, U+2029 as \u2028, \u2029.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
