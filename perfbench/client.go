package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"time"
)

// client is the benchmark's single closed-loop HTTP client: one
// keep-alive connection, one request in flight, the next request sent
// only after the previous response has been read in full and checked.
type client struct {
	base string
	hc   *http.Client
	ctx  context.Context // carries the first-byte hook

	first time.Time    // when the current response's first byte arrived
	body  bytes.Buffer // the current response, reused across requests
}

func newClient(base string) *client {
	c := &client{
		base: base,
		hc: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
	c.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { c.first = time.Now() },
	})
	return c
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange is the client-side timing of one request.
type exchange struct {
	sent, first, last time.Time
	bytes             int
}

// roundTrip sends one request and reads its whole response into c.body.
func (c *client) roundTrip(method, path string, body []byte) (exchange, int, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return exchange{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.body.Reset()
	c.first = time.Time{}
	x := exchange{sent: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return exchange{}, 0, err
	}
	_, err = c.body.ReadFrom(resp.Body)
	x.last = time.Now()
	resp.Body.Close()
	if err != nil {
		return exchange{}, resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	x.first, x.bytes = c.first, c.body.Len()
	if x.first.IsZero() {
		x.first = x.last
	}
	return x, resp.StatusCode, nil
}

// do sends r and checks the response against its reference.
func (c *client) do(r *request) (exchange, error) {
	x, status, err := c.roundTrip(http.MethodPost, r.path, r.body)
	if err != nil {
		return x, err
	}
	return x, r.want.check(status, c.body.Bytes())
}

// get fetches path and returns the body when the status is 200.
func (c *client) get(path string) ([]byte, error) {
	_, status, err := c.roundTrip(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return bytes.Clone(c.body.Bytes()), nil
}

// vars reads the daemon's /debug/vars.
func (c *client) vars() (vars, error) {
	b, err := c.get("/debug/vars")
	if err != nil {
		return vars{}, err
	}
	return parseVars(b)
}

// registerCorpus installs the workload's corpus, when it has one.
func (c *client) registerCorpus(in *inputs) error {
	if in.corpusBody == nil {
		return nil
	}
	_, status, err := c.roundTrip(http.MethodPost, "/v1/corpus/"+corpusName, in.corpusBody)
	if err != nil {
		return fmt.Errorf("registering corpus: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("registering corpus: status %d: %.200s", status, c.body.Bytes())
	}
	return nil
}

// window is the outcome of a stretch of closed-loop traffic.
type window struct {
	attempted, failed int64
	errs              []string // the first few failures
	// Per verified request, in milliseconds: sent to last byte, sent to
	// first byte, and first byte to last byte.
	latency, ttfb, drain []float64
	respBytes            int64
	start, end           time.Time
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// sampleEvery is how often loop calls its sampler between requests.
const sampleEvery = 250 * time.Millisecond

// loop sends in.reqs in order, cycling from *next, until the deadline
// passes; the request in flight at the deadline completes and counts. A
// non-nil sample is called between requests every sampleEvery, with the
// number of requests verified so far.
func (c *client) loop(in *inputs, next *int, until time.Time, sample func(verified int)) *window {
	w := &window{start: time.Now()}
	nextSample := w.start
	for now := w.start; now.Before(until); now = time.Now() {
		if sample != nil && !now.Before(nextSample) {
			sample(len(w.latency))
			nextSample = now.Add(sampleEvery)
		}
		c.step(in, next, w, nil)
	}
	w.end = time.Now()
	return w
}

// step sends the next request of in's cycle and records the outcome in
// w. With a tracer, the request is recorded as a client-side span with
// its wait (sent to first byte) and drain (first to last byte) children.
func (c *client) step(in *inputs, next *int, w *window, tr *tracer) {
	r := in.reqs[*next%len(in.reqs)]
	*next++
	w.attempted++
	x, err := c.do(r)
	if err != nil {
		w.failed++
		if len(w.errs) < 5 {
			w.errs = append(w.errs, fmt.Sprintf("%s: %v", r.path, err))
		}
		return
	}
	w.latency = append(w.latency, ms(x.last.Sub(x.sent)))
	w.ttfb = append(w.ttfb, ms(x.first.Sub(x.sent)))
	w.drain = append(w.drain, ms(x.last.Sub(x.first)))
	w.respBytes += int64(x.bytes)
	if tr != nil {
		req := tr.newReq()
		root := tr.record("http.request", -1, req, x.sent, x.last, counts{Bytes: int64(x.bytes)})
		tr.record("http.wait", root, req, x.sent, x.first, counts{})
		tr.record("http.drain", root, req, x.first, x.last, counts{Bytes: int64(x.bytes)})
	}
}
