package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// request 0..10 ms with a cache lookup 0..1 ms and an engine fan-out
		// 2..9 ms whose two workers overlap (3..7 and 5..8 ms).
		{ID: 0, Parent: -1, Name: "lib.request", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "cache.Get", Start: 0, End: 1 * ms},
		{ID: 2, Parent: 0, Name: "engine.Map", Start: 2 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Name: "Spanner.CountContext", Start: 3 * ms, End: 7 * ms},
		{ID: 4, Parent: 2, Name: "Spanner.CountContext", Start: 5 * ms, End: 8 * ms},
		// A second request whose child spills past its end: only the
		// covered part counts.
		{ID: 5, Parent: -1, Name: "lib.request", Start: 20 * ms, End: 24 * ms},
		{ID: 6, Parent: 5, Name: "cache.Get", Start: 23 * ms, End: 26 * ms},
	}
	want := map[string]layerTime{
		// 10 - (1 + 7) and 4 - 1
		"lib.request": {Calls: 2, Total: 14 * ms, Self: 5 * ms},
		"cache.Get":   {Calls: 2, Total: 4 * ms, Self: 4 * ms},
		// 7 - union(3..7, 5..8) = 7 - 5
		"engine.Map":           {Calls: 1, Total: 7 * ms, Self: 2 * ms},
		"Spanner.CountContext": {Calls: 2, Total: 7 * ms, Self: 7 * ms},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes returned %d layers, want %d: %+v", len(got), len(want), got)
	}
	for _, lt := range got {
		w := want[lt.Name]
		if lt.Calls != w.Calls || lt.Total != w.Total || lt.Self != w.Self {
			t.Errorf("%s: calls %d total %v self %v; want %d, %v, %v", lt.Name, lt.Calls, lt.Total, lt.Self, w.Calls, w.Total, w.Self)
		}
	}
	if got[0].Name != "Spanner.CountContext" {
		t.Errorf("largest self time first: got %s first", got[0].Name)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 60}, {Start: 10, End: 20}, {Start: 12, End: 15}, {Start: 90, End: 200}}
	if got := covered(p, kids); got != 30 {
		t.Errorf("covered = %v, want 30", got)
	}
	if got := covered(p, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestTracerSpansAndWrite(t *testing.T) {
	tr := newTracer()
	root := tr.begin("lib.request", -1, 1)
	child := tr.begin("cache.Get", root, 1)
	tr.end(child, counts{CacheHits: 1})
	open := tr.begin("unfinished", root, 1)
	_ = open
	tr.end(root, counts{Matches: 3})
	start := tr.origin.Add(time.Millisecond)
	tr.record("http.wait", -1, 2, start, start.Add(time.Millisecond), counts{})

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot kept %d spans, want the 3 closed ones", len(spans))
	}
	if spans[1].Parent != root || spans[1].Counts.CacheHits != 1 || spans[0].Counts.Matches != 3 {
		t.Errorf("spans lost their parent or counts: %+v", spans)
	}
	if d := spans[2].End - spans[2].Start; d != time.Millisecond {
		t.Errorf("recorded span lasts %v, want 1ms", d)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if s != spans[n] {
			t.Errorf("line %d = %+v, want %+v", n+1, s, spans[n])
		}
	}
	if n != len(spans) {
		t.Errorf("wrote %d lines, want %d", n, len(spans))
	}
}
