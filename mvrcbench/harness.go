package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// requestTimeout bounds one client request; a request that runs past it
// counts as a timeout failure.
const requestTimeout = 60 * time.Second

// harness is one in-process robustserved instance behind a real loopback
// TCP listener, plus the keep-alive client the load loop drives it with.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// startHarness starts the server; wrap, when non-nil, wraps its handler
// (the traced run records its server spans there).
func startHarness(opts server.Options, clients int, wrap func(http.Handler) http.Handler) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{srv: server.New(opts), done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	handler := h.srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	h.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	h.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        clients + 2,
			MaxIdleConnsPerHost: clients + 2,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
	return h, nil
}

// close stops the listener, drains the HTTP server and closes the robustness
// server; it returns only once the serving goroutine has ended.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	h.client.CloseIdleConnections()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome classifies one request for the failure accounting.
type outcome int

const (
	okOutcome outcome = iota
	errOutcome
	shedOutcome    // 429
	serverOutcome  // 5xx
	timeoutOutcome // client deadline
	wrongOutcome   // answered, but not what the reference says
	statusOutcome  // another unexpected status
)

var outcomeNames = [...]string{"ok", "error", "429", "5xx", "timeout", "wrong", "status"}

func classify(status int, err error) outcome {
	var ne net.Error
	switch {
	case err != nil && errors.As(err, &ne) && ne.Timeout():
		return timeoutOutcome
	case err != nil:
		return errOutcome
	case status == http.StatusTooManyRequests:
		return shedOutcome
	case status >= 500:
		return serverOutcome
	}
	return okOutcome
}

// do sends one request and reads the whole body.
func (h *harness) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// stream sends one subsets:stream request and returns the time to the
// first verdict line (measured from just before the request is sent) and
// the whole NDJSON body.
func (h *harness) stream(path string, body []byte, reqID string) (int, time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	var ttfv time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && ttfv == 0 && isVerdictLine(line) {
			ttfv = time.Since(t0)
		}
		buf.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return resp.StatusCode, 0, nil, err
		}
	}
	if resp.StatusCode == http.StatusOK && ttfv == 0 {
		return resp.StatusCode, 0, nil, errors.New("stream carried no verdict line")
	}
	return resp.StatusCode, ttfv, buf.Bytes(), nil
}

// isVerdictLine reports whether an NDJSON line is a subset verdict record
// (as opposed to the summary or an in-band error).
func isVerdictLine(line []byte) bool {
	return bytes.HasPrefix(line, []byte(`{"programs"`))
}

func (h *harness) stats() (*wire.StatsResponse, error) {
	status, body, err := h.do(http.MethodGet, "/v1/stats", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", status)
	}
	var st wire.StatsResponse
	return &st, json.Unmarshal(body, &st)
}

// opCounter counts one operation's attempts and failures by outcome.
type opCounter struct {
	attempted int
	failed    [len(outcomeNames)]int
}

func (c *opCounter) note(o outcome) {
	c.attempted++
	if o != okOutcome {
		c.failed[o]++
	}
}

func (c *opCounter) failures() int {
	n := 0
	for _, f := range c.failed {
		n += f
	}
	return n
}

// ledger is the per-operation failure accounting and latency regimes of one
// timed phase, safe for concurrent clients.
type ledger struct {
	mu    sync.Mutex
	ops   map[string]*opCounter
	dists map[string]*dist
	notes []string
}

func newLedger() *ledger {
	return &ledger{ops: map[string]*opCounter{}, dists: map[string]*dist{}}
}

// record notes one request of op. A non-ok outcome is a failure; an ok one
// adds its latency to regime (when regime is non-empty).
func (l *ledger) record(op string, o outcome, regime string, lat time.Duration, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.ops[op]
	if c == nil {
		c = &opCounter{}
		l.ops[op] = c
	}
	c.note(o)
	if o != okOutcome {
		if len(l.notes) < 20 {
			l.notes = append(l.notes, fmt.Sprintf("%s: %s: %s", op, outcomeNames[o], detail))
		}
		return
	}
	if regime != "" {
		d := l.dists[regime]
		if d == nil {
			d = newOffHeapDist()
			l.dists[regime] = d
		}
		d.add(lat)
	}
}

func (l *ledger) merge(o *ledger) {
	for op, c := range o.ops {
		mine := l.ops[op]
		if mine == nil {
			mine = &opCounter{}
			l.ops[op] = mine
		}
		mine.attempted += c.attempted
		for i, f := range c.failed {
			mine.failed[i] += f
		}
	}
	for regime, d := range o.dists {
		if l.dists[regime] == nil {
			l.dists[regime] = newOffHeapDist()
		}
		l.dists[regime].merge(d)
	}
	l.notes = append(l.notes, o.notes...)
}

func (l *ledger) totals() (attempted, failed int) {
	for _, c := range l.ops {
		attempted += c.attempted
		failed += c.failures()
	}
	return
}

func (l *ledger) dist(regime string) *dist {
	if d := l.dists[regime]; d != nil {
		return d
	}
	return &dist{}
}

// heapSampler records the live heap after each GC cycle while a timed
// phase runs (polled every 5 ms; a GC cycle is sampled when the cycle
// count has moved), plus the phase's GC cycles and allocated bytes.
type heapSampler struct {
	stop        chan struct{}
	done        chan struct{}
	live        dist // bytes, one sample per observed GC cycle
	gc0, alloc0 uint64
	samples     []metrics.Sample
}

var runtimeMetricNames = []string{"/gc/heap/live:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	return s
}

func readRuntime(s []metrics.Sample) (live, gcs, allocs uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: newSamples()}
	_, hs.gc0, hs.alloc0 = readRuntime(hs.samples)
	go func() {
		defer close(hs.done)
		own := newSamples()
		seen := hs.gc0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-hs.stop:
				return
			case <-t.C:
				if l, gcs, _ := readRuntime(own); gcs != seen {
					seen = gcs
					hs.live.add(time.Duration(l))
				}
			}
		}
	}()
	return hs
}

// finish stops the sampler and fills the phase's heap and GC figures.
func (hs *heapSampler) finish(p *phase) {
	close(hs.stop)
	<-hs.done
	_, gcs, allocs := readRuntime(hs.samples)
	p.heapLive, p.gcCycles, p.allocBytes = &hs.live, gcs-hs.gc0, allocs-hs.alloc0
}

// closedLoop runs clients goroutines until the deadline, each sending its
// next request only after the previous one completed. step performs client
// c's i-th request and returns how many requests it completed.
func closedLoop(clients int, deadline time.Time, step func(c, i int) int) (completed int, wall time.Duration) {
	var wg sync.WaitGroup
	counts := make([]int, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				counts[c] += step(c, i)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(t0)
	for _, n := range counts {
		completed += n
	}
	return completed, wall
}

// gomaxprocs pins GOMAXPROCS at the machine's CPU count and returns it.
func gomaxprocs() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	return n
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
