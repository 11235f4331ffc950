package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one spannerd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed when the process has been waited for
	err    error         // Wait's result, valid once exited is closed
	stderr bytes.Buffer  // its log, for error reports
}

// daemonEnv is the benchmark's environment minus the runtime tuning
// variables, so spannerd runs with the defaults its users get.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs spannerd on a free loopback port with otherwise
// default flags. The caller must stop it.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Env = daemonEnv()
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers ok, the process exits, or
// ctx ends.
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("spannerd exited before it was healthy: %v; log:\n%s", d.err, d.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("spannerd not healthy: %w", ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit,
// killing it if it has not exited within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reaps it either way
		<-d.exited
	}
}

// cpuTime returns the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// rssMiB returns the daemon's resident set size in MiB.
func (d *daemon) rssMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kib, err := parseVmRSS(b)
	return float64(kib) / 1024, err
}

// parseProcStat extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / clockTicks), nil
}

// parseVmRSS extracts VmRSS, in KiB, from the contents of
// /proc/<pid>/status.
func parseVmRSS(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmRSS line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmRSS line")
}

// hostCPU returns the machine's total and stolen CPU time so far, in
// clock ticks, from /proc/stat.
func hostCPU() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseCPUStat(b)
}

// parseCPUStat sums the aggregate "cpu" line of /proc/stat and returns
// the total with its steal field, the time a hypervisor ran something
// else while a virtual CPU wanted to run.
func parseCPUStat(b []byte) (total, steal uint64, err error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	// guest and guest_nice are already counted in user and nice.
	for i, s := range f[1:min(len(f), 9)] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// vars is the part of spannerd's /debug/vars the benchmark reads: the Go
// runtime's memstats and the daemon's cache and prefilter counters.
type vars struct {
	MemStats struct {
		TotalAlloc   uint64
		NumGC        uint32
		PauseTotalNs uint64
	} `json:"memstats"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"spannerd_cache"`
	Prefilter struct {
		Fallbacks int64 `json:"fallbacks"`
	} `json:"spannerd_prefilter"`
}

// parseVars decodes a /debug/vars body.
func parseVars(b []byte) (vars, error) {
	var v vars
	if err := json.Unmarshal(b, &v); err != nil {
		return vars{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v, nil
}

// varsDelta is the change in the daemon's counters over a window.
type varsDelta struct {
	AllocBytes         uint64
	GCs                uint64
	GCPause            time.Duration
	CacheHits          int64
	CacheMisses        int64
	PrefilterFallbacks int64
}

// sub returns the counter changes from before to v.
func (v vars) sub(before vars) varsDelta {
	return varsDelta{
		AllocBytes:         v.MemStats.TotalAlloc - before.MemStats.TotalAlloc,
		GCs:                uint64(v.MemStats.NumGC - before.MemStats.NumGC),
		GCPause:            time.Duration(v.MemStats.PauseTotalNs - before.MemStats.PauseTotalNs),
		CacheHits:          v.Cache.Hits - before.Cache.Hits,
		CacheMisses:        v.Cache.Misses - before.Cache.Misses,
		PrefilterFallbacks: v.Prefilter.Fallbacks - before.Prefilter.Fallbacks,
	}
}
