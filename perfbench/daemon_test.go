package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// utime 1234 and stime 56 ticks; the command name holds spaces and a
	// parenthesis, which must not shift the fields.
	stat := "4242 (spann) erd x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 1234 56 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615\n"
	got, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1290 * 10 * time.Millisecond; got != want {
		t.Errorf("parseProcStat = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 spannerd S 1", "4242 (spannerd) S 1 2 3", "4242 (d) S 1 4242 4242 0 -1 0 0 0 0 0 x 56 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatSelf(t *testing.T) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc on this system")
	}
	if _, err := parseProcStat(b); err != nil {
		t.Errorf("parsing this process's stat: %v", err)
	}
}

func TestParseVmRSS(t *testing.T) {
	status := "Name:\tspannerd\nVmPeak:\t  900000 kB\nVmRSS:\t   22128 kB\nThreads:\t9\n"
	if got, err := parseVmRSS([]byte(status)); err != nil || got != 22128 {
		t.Errorf("parseVmRSS = %d, %v; want 22128", got, err)
	}
	if _, err := parseVmRSS([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmRSS without a VmRSS line succeeded")
	}
	if _, err := parseVmRSS([]byte("VmRSS:\t12 MB\n")); err == nil {
		t.Error("parseVmRSS accepted a unit other than kB")
	}
}

func TestVarsDelta(t *testing.T) {
	body := func(alloc, gcs, pause, hits, misses, fallbacks string) []byte {
		return []byte(`{"cmdline": ["spannerd"],
"memstats": {"Alloc": 1, "TotalAlloc": ` + alloc + `, "NumGC": ` + gcs + `, "PauseTotalNs": ` + pause + `, "PauseNs": [1, 2]},
"spannerd_cache": {"hits": ` + hits + `, "misses": ` + misses + `, "evictions": 0},
"spannerd_inflight_requests": 1,
"spannerd_prefilter": {"queries": 1, "skipped_bytes": 10, "fallbacks": ` + fallbacks + `}
}`)
	}
	before, err := parseVars(body("1000", "7", "5000", "10", "2", "0"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseVars(body("1049576", "9", "12000", "110", "3", "4"))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	want := varsDelta{AllocBytes: 1 << 20, GCs: 2, GCPause: 7 * time.Microsecond, CacheHits: 100, CacheMisses: 1, PrefilterFallbacks: 4}
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
	if _, err := parseVars([]byte(`{"memstats": `)); err == nil || !strings.Contains(err.Error(), "/debug/vars") {
		t.Errorf("parseVars of a truncated body: %v", err)
	}
}

func TestDaemonEnvDropsRuntimeTuning(t *testing.T) {
	t.Setenv("GOGC", "off")
	t.Setenv("GOMAXPROCS", "1")
	t.Setenv("PERFBENCH_TEST_KEEP", "1")
	env := strings.Join(daemonEnv(), "\n")
	if strings.Contains(env, "GOGC=") || strings.Contains(env, "GOMAXPROCS=") {
		t.Error("daemon environment keeps a runtime override")
	}
	if !strings.Contains(env, "PERFBENCH_TEST_KEEP=1") {
		t.Error("daemon environment lost an unrelated variable")
	}
}

func TestParseCPUStat(t *testing.T) {
	stat := "cpu  100 5 20 800 3 0 2 70 40 0\ncpu0 50 2 10 400 1 0 1 35 20 0\n"
	total, steal, err := parseCPUStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	// guest time (40) is already inside user time, so it is not added again.
	if total != 1000 || steal != 70 {
		t.Errorf("parseCPUStat = total %d, steal %d; want 1000, 70", total, steal)
	}
	for _, bad := range []string{"intr 1 2 3\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, _, err := parseCPUStat([]byte(bad)); err == nil {
			t.Errorf("parseCPUStat(%q) succeeded", bad)
		}
	}
}
