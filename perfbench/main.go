// Command perfbench is the spanners repository's end-to-end benchmark. It
// starts the spannerd built from the same checkout, drives one named
// workload through a single closed-loop connection, checks every response
// against the library, and prints the end-to-end metrics. With -trace 1 it
// instead replays the workload's inputs in-process through each layer's
// public functions, records spans around those calls, and prints the
// per-layer metrics.
//
// Run it through run.sh from the repository root; the script builds both
// binaries first:
//
//	bash perfbench/run.sh --workload enumerate_contacts --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	// coldStarts is how many times set-up is timed; setup_s is their
	// median.
	coldStarts = 11
	// warmup is the closed-loop traffic sent before timing starts, so the
	// lazy determinization memo, the scratch pools and the cache are
	// filled.
	warmup = 2 * time.Second
	// healthTimeout bounds how long a fresh daemon may take to answer
	// /healthz.
	healthTimeout = 30 * time.Second
)

type options struct {
	spannerd string
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.spannerd, "spannerd", "", "path to the spannerd binary under test")
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window, seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	flag.StringVar(&o.out, "out", ".", "directory the trace's spans are written to")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(o options) error {
	w, ok := findWorkload(o.workload)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	case o.spannerd == "":
		return errors.New("-spannerd is required")
	case o.seconds < 1:
		return errors.New("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return errors.New("-trace must be 0 or 1")
	}
	in, err := w.build(o.seed)
	if err != nil {
		return fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	printMeta(o, in)

	var res *result
	want := endToEndMetrics
	if o.trace == 1 {
		res, err = tracedRun(o, in)
		want = perLayerMetrics
	} else {
		res, err = endToEnd(o, in)
	}
	if err != nil {
		return err
	}
	if err := res.check(want); err != nil {
		return err
	}
	res.print(w.name)
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes map[string]string // sample counts and derivations, printed beside each metric
	errs  []string          // the first few failures
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// endToEndMetrics and perLayerMetrics are the metrics BENCHMARK.json
// declares, by name with their units. A run with -trace 0 reports exactly
// the first set, a run with -trace 1 exactly the second.
var endToEndMetrics = map[string]string{
	"setup_s":                  "s",
	"requests_per_s":           "req/s",
	"latency_p50_ms":           "ms",
	"ttfb_p50_ms":              "ms",
	"daemon_cpu_ms_per_req":    "ms",
	"daemon_alloc_kib_per_req": "KiB",
	"daemon_rss_mib":           "MiB",
}

var perLayerMetrics = map[string]string{
	"latency_p90_ms":                   "ms",
	"spannerd.serve_ms":                "ms",
	"spannerd.drain_ms":                "ms",
	"spannerd.resp_bytes_per_req":      "B",
	"spannerd.failed_share":            "ratio",
	"runtime.gc_per_req":               "count",
	"runtime.gc_pause_us_per_req":      "us",
	"cache.hit_ratio":                  "ratio",
	"cache.get_hit_us":                 "us",
	"cache.get_miss_ms":                "ms",
	"compile.parse_us":                 "us",
	"compile.build_ms":                 "ms",
	"compile.first_doc_ms":             "ms",
	"compile.det_states":               "count",
	"core.preprocess_mb_per_s":         "MB/s",
	"core.enumerate_ns_per_match":      "ns",
	"spanner.materialize_ns_per_match": "ns",
	"core.count_mb_per_s":              "MB/s",
	"accel.skip_ratio":                 "ratio",
	"accel.fallbacks":                  "count",
	"engine.batch_ms":                  "ms",
	"engine.speedup":                   "x",
	"corpus.register_s":                "s",
	"cluster.gather_ms":                "ms",
	"cluster.speedup":                  "x",
	"cluster.shard_skew":               "x",
	"trace.overhead_pct":               "%",
}

// check reports a metric that is missing, unexpected or in the wrong
// unit.
func (r *result) check(want map[string]string) error {
	var errs []error
	for name, unit := range want {
		if m, ok := r.Metrics[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s was not measured", name))
		} else if m.Unit != unit {
			errs = append(errs, fmt.Errorf("metric %s in %s, declared in %s", name, m.Unit, unit))
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s is not declared", name))
		}
	}
	return errors.Join(errs...)
}

// add folds a traffic window's attempts and failures into the totals.
func (r *result) add(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.errs = append(r.errs, w.errs...)
}

// print writes the metrics by name, with units and sample counts, then
// the JSON result as the last line.
func (r *result) print(workload string) {
	r.Correct = r.Failed == 0
	for _, e := range r.errs {
		fmt.Printf("FAILED %s\n", e)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-46s %14.6g %-6s %s\n", workload+"/"+name, m.Value, m.Unit, r.notes[name])
	}
	fmt.Printf("requests: %d attempted, %d failed\n", r.Attempted, r.Failed)
	b, err := json.Marshal(r)
	if err != nil {
		// A NaN or infinite value; the metrics above show which.
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMeta records what a comparison must hold equal: hardware,
// toolchain, daemon flags and input sizes.
func printMeta(o options, in *inputs) {
	daemonGo := "unknown"
	if bi, err := buildinfo.ReadFile(o.spannerd); err == nil {
		daemonGo = bi.GoVersion
	}
	fmt.Printf("meta workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("meta cpu=%q nproc=%d\n", cpuModel(), runtime.NumCPU())
	generator := "1 (one closed-loop client)"
	if o.trace == 1 {
		generator = fmt.Sprintf("%d (in-process replay at the daemon's default)", runtime.GOMAXPROCS(0))
	}
	fmt.Printf("meta gomaxprocs generator=%s daemon=default(nproc; GOMAXPROCS and GOGC unset in its environment)\n", generator)
	fmt.Printf("meta go generator=%s daemon=%s\n", runtime.Version(), daemonGo)
	fmt.Printf("meta spannerd=%s flags=\"-addr 127.0.0.1:<free port>\" (all others default: lazy mode, 256-entry cache)\n",
		filepath.Base(o.spannerd))
	fmt.Printf("meta inputs docs=%d doc_bytes=%d distinct_requests=%d corpus=%v\n",
		len(in.docs), in.docBytes(), len(in.reqs), in.corpusBody != nil)
}

// probeSink keeps the host probe's loop from being optimized away.
var probeSink uint64

// spin runs the host probe's fixed loop once and returns its result.
func spin(seed uint64) uint64 {
	x := seed
	for j := 0; j < 30_000_000; j++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// probe is one reading of the host's speed.
type probe struct {
	single time.Duration // median of three single-thread spins
	cores  float64       // cores' worth of spinning delivered to one thread per CPU
}

// hostProbe times the fixed spin loop three times on one thread, then
// runs it on every core at once to see how many cores the host delivers.
// It is run metadata, not a metric: a probe that reads slower alongside
// slower metrics points at the host, not the program.
func hostProbe() probe {
	var ds [3]time.Duration
	for i := range ds {
		start := time.Now()
		probeSink = spin(uint64(i + 1))
		ds[i] = time.Since(start)
	}
	single := time.Duration(median([]float64{float64(ds[0]), float64(ds[1]), float64(ds[2])}))

	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	results := make(chan uint64, n) // one send per goroutine
	start := time.Now()
	for i := 0; i < n; i++ {
		go func() { results <- spin(uint64(i + 1)) }()
	}
	for i := 0; i < n; i++ {
		probeSink ^= <-results
	}
	return probe{single: single, cores: float64(n) * float64(single) / float64(time.Since(start))}
}

// printProbes prints the host probes taken before and after a workload.
func printProbes(before, after probe) {
	fmt.Printf("host_probe_ms before=%.2f after=%.2f (fixed 30M-step spin loop, one thread, median of 3; larger = slower host)\n",
		ms(before.single), ms(after.single))
	fmt.Printf("host_parallel_cores before=%.2f after=%.2f of %d (the same loop on every core at once)\n",
		before.cores, after.cores, runtime.NumCPU())
}

// session is a running daemon with the benchmark's client connected to
// it, and the position in the workload's request cycle.
type session struct {
	d    *daemon
	c    *client
	next int
}

func (s *session) stop() {
	s.c.close()
	s.d.stop()
}

// coldStart execs spannerd and returns once it has answered the
// workload's first request correctly, with the time that took: exec,
// /healthz, the workload's preparation (corpus registration) and the
// first verified response.
func coldStart(o options, in *inputs) (*session, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(o.spannerd)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, c: newClient(d.base)}
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	if err := d.waitHealthy(ctx, s.c.hc); err != nil {
		s.stop()
		return nil, 0, err
	}
	if err := s.c.registerCorpus(in); err != nil {
		s.stop()
		return nil, 0, err
	}
	if _, err := s.c.do(in.reqs[0]); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("first response after a cold start: %w", err)
	}
	s.next = 1
	return s, time.Since(start), nil
}

// endToEnd measures the workload's end-to-end metrics: set-up over
// several cold starts, then a warm-up and a timed window of closed-loop
// traffic on the last daemon started.
func endToEnd(o options, in *inputs) (*result, error) {
	res := newResult()
	before := hostProbe()
	// The client is one closed loop. On one thread its own goroutine
	// hand-offs and collections stay off the daemon's second core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var starts []time.Duration
	var s *session
	for i := 0; i < coldStarts; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = coldStart(o, in); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		starts = append(starts, d)
		res.Attempted++
	}
	defer s.stop()

	// Collect the generator's set-up garbage now rather than inside the
	// timed window, where its GC would compete with the daemon for CPU.
	runtime.GC()
	res.add(s.c.loop(in, &s.next, time.Now().Add(warmup), nil))

	v0, err := s.c.vars()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuTime()
	if err != nil {
		return nil, err
	}
	// Resident memory follows the heap's sawtooth between collections, so
	// it is sampled through the window rather than read once. The host's
	// stolen time is read at the same marks, to find the quiet slices.
	var rss []float64
	var marks []mark
	var sampleErr error
	sample := func(verified int) {
		v, err := s.d.rssMiB()
		rss = append(rss, v)
		total, steal, err2 := hostCPU()
		marks = append(marks, mark{time.Now(), verified, total, steal})
		sampleErr = errors.Join(sampleErr, err, err2)
	}
	win := s.c.loop(in, &s.next, time.Now().Add(time.Duration(o.seconds)*time.Second), sample)
	cpu1, err := s.d.cpuTime()
	if err != nil {
		return nil, err
	}
	sample(len(win.latency))
	if sampleErr != nil {
		return nil, sampleErr
	}
	v1, err := s.c.vars()
	if err != nil {
		return nil, err
	}
	res.add(win)
	printProbes(before, hostProbe())
	first, last := marks[0], marks[len(marks)-1]
	fmt.Printf("host_steal_pct window=%.2f (share of the machine's CPU time the hypervisor gave to others during the window)\n",
		100*float64(last.steal-first.steal)/float64(max(last.total-first.total, 1)))

	n := len(win.latency)
	quiet, quietSecs := quietSlices(marks)
	lat, ttfb := pick(win.latency, quiet), pick(win.ttfb, quiet)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no verified requests in the timed window; first failures: %v", win.errs)
	}
	quietNote := fmt.Sprintf("in %d of %d slices of %v with the least stolen time", len(quiet), len(marks)-1, sampleEvery)
	delta := v1.sub(v0)
	res.set("setup_s", setupMedian(starts), "s", fmt.Sprintf("median of %d cold starts", len(starts)))
	res.set("requests_per_s", float64(len(lat))/quietSecs, "req/s",
		fmt.Sprintf("%d verified in %.2f s %s (whole window: %.4g)", len(lat), quietSecs, quietNote, float64(n)/win.seconds()))
	res.set("latency_p50_ms", median(lat), "ms",
		fmt.Sprintf("n=%d %s (whole window: %.4g, n=%d)", len(lat), quietNote, median(win.latency), n))
	p90, note := tail(win.latency)
	fmt.Printf("%-46s %14.6g %-6s %s (a per-layer metric; not in the JSON)\n", o.workload+"/latency_p90_ms", p90, "ms", note)
	res.set("ttfb_p50_ms", median(ttfb), "ms",
		fmt.Sprintf("n=%d %s (whole window: %.4g)", len(ttfb), quietNote, median(win.ttfb)))
	res.set("daemon_cpu_ms_per_req", ms(cpu1-cpu0)/float64(n), "ms", fmt.Sprintf("%.0f ms utime+stime / %d", ms(cpu1-cpu0), n))
	res.set("daemon_alloc_kib_per_req", float64(delta.AllocBytes)/1024/float64(n), "KiB", fmt.Sprintf("%d B TotalAlloc / %d", delta.AllocBytes, n))
	res.set("daemon_rss_mib", median(rss), "MiB", fmt.Sprintf("median VmRSS over %d samples in the window (after: %.1f MiB)", len(rss), rss[len(rss)-1]))
	return res, nil
}
