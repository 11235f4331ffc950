package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"spanners/cluster"
	"spanners/corpus"
	"spanners/engine"
	"spanners/spanner"
	"spanners/spanner/cache"
)

const (
	// layerBudget is how long each in-process layer measurement repeats;
	// each runs at least minReps and at most maxReps times.
	layerBudget = 400 * time.Millisecond
	minReps     = 5
	maxReps     = 1000
	// clusterShards is spannerd's default shard count for a registered
	// corpus.
	clusterShards = 4
)

// tracedRun is the per-layer pass. It measures the serving layer from the
// client and the daemon's counters, then replays the workload's generated
// inputs in-process through each layer's public functions, recording a
// span around every call.
func tracedRun(o options, in *inputs) (*result, error) {
	ctx := context.Background()
	res := newResult()
	tr := newTracer()
	before := hostProbe()
	queries := in.queries()
	// A warm spanner, the state the daemon's cached entry is in after its
	// warm-up: the lazy memo and the scratch pool fill on first use.
	sp, err := compileLazy(queries[0])
	if err != nil {
		return nil, err
	}
	for _, d := range in.docs {
		if _, _, err := sp.CountContext(ctx, d); err != nil {
			return nil, err
		}
		sp.Enumerate(d, func(*spanner.Match) bool { return true })
	}

	if err := servingLayers(ctx, o, in, res, tr); err != nil {
		return nil, err
	}
	compileLayers(ctx, tr, queries, in.docs[0], res)
	cacheLayers(ctx, tr, queries, res)
	coreLayers(ctx, tr, sp, in.docs, res)
	fanOutLayers(ctx, tr, sp, in.docs, res)
	res.set("spannerd.failed_share", float64(res.Failed)/float64(res.Attempted), "ratio",
		fmt.Sprintf("%d failed / %d attempted HTTP requests", res.Failed, res.Attempted))
	printProbes(before, hostProbe())

	spans := tr.snapshot()
	printSelfTimes(spans)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return res, nil
}

// servingLayers measures the serving layer and the daemon's runtime from
// outside. For two thirds of the end-to-end window it repeats three
// steps: an untraced request, a traced request, and an in-process replay
// of the same request's library calls. Interleaving them keeps host
// drift out of the comparisons between the three: the tracing overhead
// and the serving residual.
func servingLayers(ctx context.Context, o options, in *inputs, res *result, tr *tracer) error {
	rp := newReplay(in)
	warmTr := newTracer() // the warm-up's spans are dropped
	s, _, err := coldStart(o, in)
	if err != nil {
		return err
	}
	defer s.stop()
	res.Attempted++
	res.add(s.c.loop(in, &s.next, time.Now().Add(warmup/2), nil))
	for end := time.Now().Add(warmup / 2); time.Now().Before(end); {
		if _, err := rp.request(ctx, warmTr); err != nil {
			return err
		}
	}

	v0, err := s.c.vars()
	if err != nil {
		return err
	}
	plain, traced := &window{}, &window{}
	var lib []float64
	end := time.Now().Add(time.Duration(o.seconds) * time.Second * 2 / 3)
	for i := 0; time.Now().Before(end); i++ {
		// Swap which of the pair goes first, so neither always follows the
		// replay's work in this process.
		if i%2 == 0 {
			s.c.step(in, &s.next, plain, nil)
			s.c.step(in, &s.next, traced, tr)
		} else {
			s.c.step(in, &s.next, traced, tr)
			s.c.step(in, &s.next, plain, nil)
		}
		d, err := rp.request(ctx, tr)
		if err != nil {
			return err
		}
		lib = append(lib, d)
	}
	v1, err := s.c.vars()
	if err != nil {
		return err
	}
	res.add(plain)
	res.add(traced)
	if len(plain.latency) == 0 || len(traced.latency) == 0 {
		return fmt.Errorf("no verified requests in the traced pass; first failures: %v", res.errs)
	}

	httpP50, libP50 := median(plain.latency), median(lib)
	d := v1.sub(v0)
	n := float64(len(plain.latency) + len(traced.latency))
	res.set("spannerd.serve_ms", httpP50-libP50, "ms",
		fmt.Sprintf("untraced HTTP p50 %.3f ms - in-process p50 %.3f ms (n=%d, %d)", httpP50, libP50, len(plain.latency), len(lib)))
	p90, note := tail(plain.latency)
	res.set("latency_p90_ms", p90, "ms", note+" untraced requests")
	res.set("spannerd.drain_ms", median(plain.drain), "ms", fmt.Sprintf("p50 first byte to last byte, n=%d", len(plain.drain)))
	res.set("spannerd.resp_bytes_per_req", float64(plain.respBytes+traced.respBytes)/n, "B", fmt.Sprintf("n=%.0f", n))
	res.set("runtime.gc_per_req", float64(d.GCs)/n, "count", fmt.Sprintf("%d GCs / %.0f requests", d.GCs, n))
	res.set("runtime.gc_pause_us_per_req", float64(d.GCPause.Nanoseconds())/1e3/n, "us", fmt.Sprintf("%v PauseTotalNs / %.0f", d.GCPause, n))
	lookups := d.CacheHits + d.CacheMisses
	res.set("cache.hit_ratio", float64(d.CacheHits)/float64(lookups), "ratio", fmt.Sprintf("%d hits / %d lookups (daemon counters)", d.CacheHits, lookups))
	res.set("accel.fallbacks", float64(d.PrefilterFallbacks), "count", fmt.Sprintf("daemon spannerd_prefilter delta over %.0f requests", n))
	tracedP50 := median(traced.latency)
	res.set("trace.overhead_pct", (tracedP50/httpP50-1)*100, "%",
		fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms, interleaved (n=%d, %d)", tracedP50, httpP50, len(traced.latency), len(plain.latency)))
	return nil
}

// repeat calls fn at least minReps times and until layerBudget has
// passed or it has run maxReps times.
func repeat(fn func(rep int)) {
	start := time.Now()
	for rep := 0; rep < minReps || rep < maxReps && time.Since(start) < layerBudget; rep++ {
		fn(rep)
	}
}

// gcCycles reads the generator's completed GC cycle count.
func gcCycles() int64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// timed runs fn inside a span and returns its duration.
func timed(tr *tracer, name string, parent, req int, fn func() counts) time.Duration {
	id := tr.begin(name, parent, req)
	start := time.Now()
	c := fn()
	d := time.Since(start)
	tr.end(id, c)
	return d
}

// queries returns the workload's distinct query texts in request order.
func (in *inputs) queries() []string {
	var qs []string
	for _, r := range in.reqs {
		if !slices.Contains(qs, r.query) {
			qs = append(qs, r.query)
		}
	}
	return qs
}

// replay makes, in-process, the library calls spannerd's handlers make
// for the workload's requests, without decoding, encoding or HTTP.
type replay struct {
	in    *inputs
	cache *cache.Cache     // configured like the daemon's
	snap  *corpus.Snapshot // the registered corpus, for ?corpus= requests
	next  int              // position in the request cycle
}

func newReplay(in *inputs) *replay {
	return &replay{
		in:    in,
		cache: cache.New(cache.Config{}),
		snap:  corpus.NewSnapshot(corpusName, 1, in.docs, clusterShards),
	}
}

// request replays the next request of the cycle inside a lib.request
// span and returns its duration in milliseconds.
func (rp *replay) request(ctx context.Context, tr *tracer) (float64, error) {
	r := rp.in.reqs[rp.next%len(rp.in.reqs)]
	rp.next++
	id := tr.newReq()
	gc0 := gcCycles()
	root := tr.begin("lib.request", -1, id)
	start := time.Now()
	c, err := rp.calls(ctx, tr, root, id, r)
	d := ms(time.Since(start))
	c.GCCycles = gcCycles() - gc0
	tr.end(root, c)
	return d, err
}

// calls makes the library calls spannerd's handler makes for r.
func (rp *replay) calls(ctx context.Context, tr *tracer, root, id int, r *request) (counts, error) {
	var total counts
	get := tr.begin("cache.Get", root, id)
	hits := rp.cache.Stats().Hits
	sp, err := rp.cache.Get(ctx, r.query, spanner.ModeLazy)
	tr.end(get, counts{CacheHits: rp.cache.Stats().Hits - hits})
	if err != nil {
		return total, err
	}
	switch {
	case strings.Contains(r.path, "corpus="):
		timed(tr, "cluster.ProcessContext", root, id, func() counts {
			_, err = cluster.New(sp, rp.snap).ProcessContext(ctx, func(_ int, ev *spanner.Evaluation, _ error) bool {
				ev.Enumerate(func(m *spanner.Match) bool {
					m.Bindings()
					total.Matches++
					return true
				})
				return true
			})
			return counts{Matches: total.Matches, Bytes: rp.snap.Bytes()}
		})
	case strings.HasPrefix(r.path, "/v1/enumerate"):
		for _, d := range rp.in.docs {
			pre := tr.begin("Spanner.PreprocessContext", root, id)
			ev, err := sp.PreprocessContext(ctx, d)
			tr.end(pre, counts{Bytes: int64(len(d))})
			if err != nil {
				return total, err
			}
			timed(tr, "Evaluation.Enumerate+Bindings", root, id, func() counts {
				var n int64
				ev.Enumerate(func(m *spanner.Match) bool {
					m.Bindings()
					n++
					return true
				})
				total.Matches += n
				return counts{Matches: n}
			})
			ev.Release()
		}
	default:
		m := tr.begin("engine.Map", root, id)
		err = countMap(ctx, tr, m, id, sp, rp.in.docs, runtime.GOMAXPROCS(0))
		tr.end(m, counts{Bytes: rp.in.docBytes()})
	}
	total.Bytes = rp.in.docBytes()
	total.DetStates = int64(sp.Stats().DetStates)
	return total, err
}

// countMap counts docs with engine.Map at the given worker count, the
// way spannerd's count handler does, recording a span per document.
func countMap(ctx context.Context, tr *tracer, parent, id int, sp *spanner.Spanner, docs [][]byte, workers int) error {
	var first error
	engine.Map(workers, len(docs),
		func(i int) error {
			var err error
			timed(tr, "Spanner.CountContext", parent, id, func() counts {
				_, _, err = sp.CountContext(ctx, docs[i])
				return counts{Bytes: int64(len(docs[i]))}
			})
			return err
		},
		func(_ int, err error) bool {
			if err != nil {
				first = err
				return false
			}
			return true
		})
	return first
}

// compileLayers measures the compile pipeline over the workload's
// queries: parse, compile, and the first document on a fresh lazy
// spanner against a warm one.
func compileLayers(ctx context.Context, tr *tracer, queries []string, doc []byte, res *result) {
	var parse, build, first []float64
	var states []float64
	repeat(func(rep int) {
		src := queries[rep%len(queries)]
		id := tr.newReq()
		root := tr.begin("compile", -1, id)
		var q *spanner.Query
		var err error
		parse = append(parse, float64(timed(tr, "spanner.ParseQuery", root, id, func() counts {
			q, err = spanner.ParseQuery(src)
			return counts{}
		}))/1e3)
		if err != nil {
			tr.end(root, counts{})
			return
		}
		var sp *spanner.Spanner
		build = append(build, ms(timed(tr, "Query.Compile", root, id, func() counts {
			sp, err = q.Compile(spanner.WithLazy())
			return counts{}
		})))
		if err != nil {
			tr.end(root, counts{})
			return
		}
		cold := timed(tr, "Spanner.CountContext(first)", root, id, func() counts {
			_, _, _ = sp.CountContext(ctx, doc) // a failure shows as a wrong response in the end-to-end run
			return counts{Bytes: int64(len(doc)), DetStates: int64(sp.Stats().DetStates)}
		})
		warm := timed(tr, "Spanner.CountContext(warm)", root, id, func() counts {
			_, _, _ = sp.CountContext(ctx, doc)
			return counts{Bytes: int64(len(doc))}
		})
		first = append(first, ms(cold-warm))
		states = append(states, float64(sp.Stats().DetStates))
		tr.end(root, counts{DetStates: int64(sp.Stats().DetStates)})
	})
	res.set("compile.parse_us", median(parse), "us", fmt.Sprintf("p50 spanner.ParseQuery, n=%d", len(parse)))
	res.set("compile.build_ms", median(build), "ms", fmt.Sprintf("p50 Query.Compile(WithLazy()), n=%d", len(build)))
	res.set("compile.first_doc_ms", median(first), "ms", fmt.Sprintf("p50 first CountContext minus warm, n=%d", len(first)))
	res.set("compile.det_states", median(states), "count", fmt.Sprintf("p50 Stats().DetStates after the first document, n=%d", len(states)))
}

// cacheLayers times cache.Get on a warm key and on a fresh key.
func cacheLayers(ctx context.Context, tr *tracer, queries []string, res *result) {
	warm := cache.New(cache.Config{})
	if _, err := warm.Get(ctx, queries[0], spanner.ModeLazy); err != nil {
		return
	}
	var hit, miss []float64
	repeat(func(int) {
		id := tr.newReq()
		hit = append(hit, float64(timed(tr, "cache.Get(hit)", -1, id, func() counts {
			_, _ = warm.Get(ctx, queries[0], spanner.ModeLazy) // compiled once above
			return counts{CacheHits: 1}
		}))/1e3)
	})
	repeat(func(rep int) {
		id := tr.newReq()
		fresh := cache.New(cache.Config{})
		miss = append(miss, ms(timed(tr, "cache.Get(miss)", -1, id, func() counts {
			_, _ = fresh.Get(ctx, queries[rep%len(queries)], spanner.ModeLazy) // every query compiled in set-up
			return counts{}
		})))
	})
	res.set("cache.get_hit_us", median(hit), "us", fmt.Sprintf("p50, n=%d", len(hit)))
	res.set("cache.get_miss_ms", median(miss), "ms", fmt.Sprintf("p50 on a fresh cache, n=%d", len(miss)))
}

// coreLayers measures Algorithm 1 preprocessing, enumeration, match
// materialization, Algorithm 3 counting and the prefilter on the warm
// spanner over the workload's documents.
func coreLayers(ctx context.Context, tr *tracer, sp *spanner.Spanner, docs [][]byte, res *result) {
	var pre, enum, bind time.Duration
	var bytes, skipped, matches int64
	repeat(func(int) {
		id := tr.newReq()
		root := tr.begin("core", -1, id)
		var c counts
		for _, d := range docs {
			skip0 := sp.Stats().PrefilterSkippedBytes
			span := tr.begin("Spanner.PreprocessContext", root, id)
			start := time.Now()
			ev, _ := sp.PreprocessContext(ctx, d) // no deadline: cannot fail
			pre += time.Since(start)
			tr.end(span, counts{Bytes: int64(len(d))})
			skip := sp.Stats().PrefilterSkippedBytes - skip0
			var n int64
			enum += timed(tr, "Evaluation.Enumerate", root, id, func() counts {
				ev.Enumerate(func(*spanner.Match) bool { n++; return true })
				return counts{Matches: n}
			})
			ev.Release()
			ev, _ = sp.PreprocessContext(ctx, d)
			bind += timed(tr, "Evaluation.Enumerate+Bindings", root, id, func() counts {
				ev.Enumerate(func(m *spanner.Match) bool { m.Bindings(); return true })
				return counts{Matches: n}
			})
			ev.Release()
			c.Bytes += int64(len(d))
			c.SkippedBytes += skip
			c.Matches += n
		}
		tr.end(root, c)
		bytes += c.Bytes
		skipped += c.SkippedBytes
		matches += c.Matches
	})
	var count time.Duration
	var countBytes int64
	repeat(func(int) {
		id := tr.newReq()
		for _, d := range docs {
			count += timed(tr, "Spanner.CountContext", -1, id, func() counts {
				_, _, _ = sp.CountContext(ctx, d) // no deadline: cannot fail
				return counts{Bytes: int64(len(d))}
			})
			countBytes += int64(len(d))
		}
	})
	res.set("core.preprocess_mb_per_s", float64(bytes)/1e6/pre.Seconds(), "MB/s", fmt.Sprintf("%d B in %v", bytes, pre))
	res.set("core.count_mb_per_s", float64(countBytes)/1e6/count.Seconds(), "MB/s", fmt.Sprintf("%d B in %v", countBytes, count))
	res.set("accel.skip_ratio", float64(skipped)/float64(bytes), "ratio", fmt.Sprintf("%d skipped / %d preprocessed bytes", skipped, bytes))
	if matches > 0 {
		res.set("core.enumerate_ns_per_match", float64(enum.Nanoseconds())/float64(matches), "ns", fmt.Sprintf("%d matches in %v", matches, enum))
		res.set("spanner.materialize_ns_per_match", float64((bind-enum).Nanoseconds())/float64(matches), "ns",
			fmt.Sprintf("(%v with Bindings - %v without) / %d matches", bind, enum, matches))
	}
}

// fanOutLayers measures the engine's ordered fan-out, corpus
// registration and the cluster's scatter/gather over the workload's
// documents.
func fanOutLayers(ctx context.Context, tr *tracer, sp *spanner.Spanner, docs [][]byte, res *result) {
	procs := runtime.GOMAXPROCS(0)
	mapAt := func(workers int) []float64 {
		var ts []float64
		repeat(func(int) {
			id := tr.newReq()
			name := fmt.Sprintf("engine.Map(workers=%d)", workers)
			root := tr.begin(name, -1, id)
			start := time.Now()
			_ = countMap(ctx, tr, root, id, sp, docs, workers) // no deadline: cannot fail
			ts = append(ts, ms(time.Since(start)))
			tr.end(root, counts{Bytes: totalBytes(docs)})
		})
		return ts
	}
	par, seq := median(mapAt(procs)), median(mapAt(1))
	res.set("engine.batch_ms", par, "ms", fmt.Sprintf("p50 engine.Map of CountContext over %d docs, %d workers", len(docs), procs))
	res.set("engine.speedup", seq/par, "x", fmt.Sprintf("1 worker %.3f ms / %d workers %.3f ms", seq, procs, par))

	var reg []float64
	repeat(func(int) {
		id := tr.newReq()
		r := corpus.NewRegistry(corpus.Limits{})
		reg = append(reg, timed(tr, "corpus.Registry.Register", -1, id, func() counts {
			_, _ = r.Register(corpusName, docs, clusterShards) // within the default limits
			return counts{Bytes: totalBytes(docs)}
		}).Seconds())
	})
	res.set("corpus.register_s", median(reg), "s", fmt.Sprintf("p50 in-process Register of %d docs, n=%d", len(docs), len(reg)))

	gather := func(shards int) []float64 {
		snap := corpus.NewSnapshot(corpusName, 1, docs, shards)
		var ts []float64
		repeat(func(int) {
			id := tr.newReq()
			ts = append(ts, ms(timed(tr, fmt.Sprintf("cluster.ProcessContext(shards=%d)", shards), -1, id, func() counts {
				var n int64
				_, _ = cluster.New(sp, snap).ProcessContext(ctx, func(_ int, ev *spanner.Evaluation, _ error) bool {
					ev.Enumerate(func(*spanner.Match) bool { n++; return true })
					return true
				}) // no deadline: cannot fail
				return counts{Matches: n, Bytes: snap.Bytes()}
			})))
		})
		return ts
	}
	four, one := median(gather(clusterShards)), median(gather(1))
	res.set("cluster.gather_ms", four, "ms", fmt.Sprintf("p50 ProcessContext over %d shards", clusterShards))
	res.set("cluster.speedup", one/four, "x", fmt.Sprintf("1 shard %.3f ms / %d shards %.3f ms", one, clusterShards, four))

	// Per-shard busy time: each shard's documents preprocessed and
	// enumerated alone, since the coordinator's shard goroutines cannot be
	// timed from outside.
	snap := corpus.NewSnapshot(corpusName, 1, docs, clusterShards)
	busy := make([]time.Duration, clusterShards)
	repeat(func(int) {
		id := tr.newReq()
		for k := range busy {
			busy[k] += timed(tr, fmt.Sprintf("shard%d.busy", k), -1, id, func() counts {
				for _, doc := range snap.ShardDocs(k) {
					ev, _ := sp.PreprocessContext(ctx, snap.Doc(doc)) // no deadline: cannot fail
					ev.Enumerate(func(*spanner.Match) bool { return true })
					ev.Release()
				}
				return counts{Bytes: snap.ShardBytes(k)}
			})
		}
	})
	var sum, peak time.Duration
	for _, b := range busy {
		sum += b
		peak = max(peak, b)
	}
	mean := float64(sum) / float64(len(busy))
	res.set("cluster.shard_skew", float64(peak)/mean, "x", fmt.Sprintf("max / mean per-shard busy time over %d shards", clusterShards))
}

// printSelfTimes prints each span name's calls, total and self time.
func printSelfTimes(spans []span) {
	fmt.Printf("%-40s %8s %12s %12s\n", "layer (span)", "calls", "total_ms", "self_ms")
	for _, lt := range selfTimes(spans) {
		fmt.Printf("%-40s %8d %12.3f %12.3f\n", lt.Name, lt.Calls, ms(lt.Total), ms(lt.Self))
	}
}
