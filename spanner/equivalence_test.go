package spanner_test

import (
	"math/rand"
	"reflect"
	"testing"

	"spanners/internal/gen"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// TestStrictLazyEquivalence is the determinization-equivalence property
// test: compiling the same pattern with strict and lazy determinization
// must yield identical mapping sets and identical counts on every
// document. Patterns cover the paper's running example, the
// nested-variable worst case, and random formulas (including
// non-sequential ones); documents come from the gen workload generators.
func TestStrictLazyEquivalence(t *testing.T) {
	docs := [][]byte{
		nil,
		gen.Figure1Doc(),
		gen.Contacts(8, 3),
		gen.RandomDoc(64, "ab", 5),
		gen.LogDoc(2, 9),
	}

	patterns := []string{
		gen.Figure1Pattern(),
		gen.NestedPattern(2),
		`(!x{a})*b`,
		`.*!w{\w+}.*`,
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 20; i++ {
		patterns = append(patterns, gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab").String())
	}

	for _, p := range patterns {
		strict, err := spanner.Compile(p, spanner.WithStrict())
		if err != nil {
			t.Fatalf("strict compile %q: %v", p, err)
		}
		lazy, err := spanner.Compile(p, spanner.WithLazy())
		if err != nil {
			t.Fatalf("lazy compile %q: %v", p, err)
		}
		for _, doc := range docs {
			sCnt, sExact := count(t, strict, doc)
			lCnt, lExact := count(t, lazy, doc)
			if sCnt != lCnt || sExact != lExact {
				t.Fatalf("pattern %q doc %.40q: strict count %d (%v), lazy count %d (%v)",
					p, doc, sCnt, sExact, lCnt, lExact)
			}
			// Output-heavy pattern/document pairs (nested variables produce
			// Ω(|d|^ℓ) mappings) are compared by count only; full mapping
			// sets are compared whenever enumeration is tractable.
			if !sExact || sCnt > 20000 {
				continue
			}
			sKeys := collectKeys(strict, doc)
			lKeys := collectKeys(lazy, doc)
			if !reflect.DeepEqual(sKeys, lKeys) {
				t.Fatalf("pattern %q doc %.40q: strict %d mappings, lazy %d mappings\nstrict: %v\nlazy: %v",
					p, doc, len(sKeys), len(lKeys), sKeys, lKeys)
			}
			if sCnt != uint64(len(sKeys)) {
				t.Fatalf("pattern %q doc %.40q: count %d disagrees with enumeration %d",
					p, doc, sCnt, len(sKeys))
			}
			if isEmpty(strict, doc) != isEmpty(lazy, doc) {
				t.Fatalf("pattern %q doc %.40q: emptiness disagrees", p, doc)
			}
		}
		// Lazy never mints more subset states than strict materializes.
		if ls, ss := lazy.Stats().DetStates, strict.Stats().DetStates; ls > ss {
			t.Fatalf("pattern %q: lazy discovered %d states, strict has %d", p, ls, ss)
		}
	}
}

// TestFacadeMatchesReferenceSemantics checks the facade end-to-end against
// the exhaustive Table 1 interpreter on random formulas — the same
// differential oracle the core tests use, but driven through the public
// API.
func TestFacadeMatchesReferenceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	docs := [][]byte{nil, []byte("a"), []byte("ab"), []byte("ba"), []byte("aab")}
	for i := 0; i < 40; i++ {
		node := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		s, err := spanner.CompileNode(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			want, err := rgx.Evaluate(node, doc)
			if err != nil {
				t.Fatal(err)
			}
			keys := collectKeys(s, doc)
			if len(keys) != want.Len() {
				t.Fatalf("case %d (%s) doc %q: facade %d mappings, reference %d",
					i, node, doc, len(keys), want.Len())
			}
			for _, k := range keys {
				if !want.ContainsKey(shiftKeyTo1Based(t, k)) {
					t.Fatalf("case %d (%s) doc %q: facade emitted %q not in reference set",
						i, node, doc, k)
				}
			}
		}
	}
}

// shiftKeyTo1Based converts a facade Match key (0-based offsets) into the
// model.Mapping key convention (1-based positions).
func shiftKeyTo1Based(t *testing.T, key string) string {
	t.Helper()
	out := make([]byte, 0, len(key))
	i := 0
	for i < len(key) {
		// copy "var=[" verbatim
		j := i
		for key[j] != '[' {
			j++
		}
		j++
		out = append(out, key[i:j]...)
		// start
		k := j
		for key[k] != ',' {
			k++
		}
		start := atoi(key[j:k])
		// end
		l := k + 1
		for key[l] != ')' {
			l++
		}
		end := atoi(key[k+1 : l])
		out = appendInt(out, start+1)
		out = append(out, ',')
		out = appendInt(out, end+1)
		out = append(out, ')')
		i = l + 1
		if i < len(key) && key[i] == '|' {
			out = append(out, '|')
			i++
		}
	}
	return string(out)
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}
