package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; requests past
// it are not traced.
const maxSpans = 100_000

// span is one timed interval at a layer boundary. Spans of one request
// share its request ID (sent as X-Request-ID, so the server's middleware
// and phase records carry it too).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list, -1 for a root
	ReqID  string        `json:"request_id"`
}

// spanRef is an open span; the zero value (tracing off) is a no-op.
type spanRef struct {
	t   *tracer
	idx int
}

// tracer records spans from the benchmark's own code: the client request
// (root), the loopback round trip ("transport"), the server handler
// ("server", by wrapping the handler) and the engine phases the server's
// debug log reports (by installing the logger). Everything is kept in
// memory and written when the run ends.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	// gen counts enable calls, so request IDs stay unique across traced
	// phases whose request counters restart at zero.
	gen   int
	mu    sync.Mutex
	spans []span
	// open maps a request ID to its innermost open benchmark-side span, so
	// the server span and phase records can find their parent.
	open map[string]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: map[string]int{}} }

func (t *tracer) enable() {
	t.gen++
	t.enabled.Store(true)
}
func (t *tracer) disable() { t.enabled.Store(false) }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// id is the request ID of a traced request, or "" when tracing is off.
func (t *tracer) id(parts ...any) string {
	if !t.on() {
		return ""
	}
	return fmt.Sprint(append([]any{"t", t.gen, "-"}, parts...)...)
}

// begin opens a span named name under the request's innermost open span.
func (t *tracer) begin(name, reqID string) spanRef {
	if !t.on() || reqID == "" {
		return spanRef{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return spanRef{}
	}
	parent, ok := t.open[reqID]
	if !ok {
		parent = -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ReqID: reqID})
	idx := len(t.spans) - 1
	t.open[reqID] = idx
	return spanRef{t: t, idx: idx}
}

// end closes the span and makes its parent the request's innermost span.
func (t *tracer) end(r spanRef) {
	if r.t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.idx]
	s.End = now
	if s.Parent >= 0 {
		t.open[s.ReqID] = s.Parent
	} else {
		delete(t.open, s.ReqID)
	}
}

// wrap records the server span of every traced request around the
// server's own handler.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		s := t.begin("server", r.Header.Get("X-Request-ID"))
		h.ServeHTTP(rw, r)
		t.end(s)
	})
}

// phaseLayers maps the server's engine phase names to the layer they
// belong to. first_verdict is a latency marker (stream start to first
// emitted line), not work, so it is not a span here.
var phaseLayers = map[string]string{
	"validate_unfold": "btp",
	"pairs":           "summary.pairs",
	"compose":         "summary.compose",
	"detect":          "summary.detect",
	"lattice_level":   "analysis.lattice",
	"snapshot_flush":  "snapshot",
}

var isPhase = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range phaseLayers {
		m[l] = true
	}
	return m
}()

// logger returns the slog logger the traced server logs its phase records
// into; each becomes a span ending at the record's time.
func (t *tracer) logger() *slog.Logger { return slog.New(phaseHandler{t}) }

type phaseHandler struct{ t *tracer }

func (h phaseHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l == slog.LevelDebug && h.t.on()
}

func (h phaseHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "phase" {
		return nil
	}
	var name, reqID string
	var d time.Duration
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "phase":
			name = a.Value.String()
		case "duration":
			d = a.Value.Duration()
		case "request_id":
			reqID = a.Value.String()
		}
		return true
	})
	layer, ok := phaseLayers[name]
	if !ok || reqID == "" {
		return nil
	}
	end := r.Time.Sub(h.t.epoch)
	t := h.t
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[reqID]
	if !ok || len(t.spans) >= maxSpans {
		return nil
	}
	t.spans = append(t.spans, span{Name: layer, Start: end - d, End: end, Parent: parent, ReqID: reqID})
	return nil
}

func (h phaseHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h phaseHandler) WithGroup(string) slog.Handler      { return h }

// attribute splits a root span's interval among the layers of its span
// tree: every instant goes to the deepest span covering it (children are
// clipped to the root), so overlapping children — parallel detector runs,
// a pairs span inside a compose span — are counted once and the layer
// times add up to the root's duration exactly. The root's own share is
// "unattributed": time inside the operation that no layer span covers.
func attribute(root span, spans []span, depth []int) map[string]time.Duration {
	pts := []time.Duration{root.Start, root.End}
	for _, s := range spans {
		if s.Start > root.Start && s.Start < root.End {
			pts = append(pts, s.Start)
		}
		if s.End > root.Start && s.End < root.End {
			pts = append(pts, s.End)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if b <= a {
			continue
		}
		layer, best := "unattributed", 0
		for j, s := range spans {
			if s.Start <= a && s.End >= b && depth[j] > best {
				layer, best = s.Name, depth[j]
			}
		}
		out[layer] += b - a
	}
	return out
}

// opBreakdown is the mean per-layer self time of one operation's traced
// requests.
type opBreakdown struct {
	n      int
	total  time.Duration
	layers map[string]time.Duration
}

// breakdown groups the spans by request and attributes each request's
// root interval to its layers.
func (t *tracer) breakdown() map[string]*opBreakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range t.spans {
		byReq[s.ReqID] = append(byReq[s.ReqID], i)
	}
	out := map[string]*opBreakdown{}
	for _, idxs := range byReq {
		rootIdx := -1
		for _, i := range idxs {
			if t.spans[i].Parent < 0 {
				rootIdx = i
			}
		}
		if rootIdx < 0 || t.spans[rootIdx].End == 0 {
			continue
		}
		root := t.spans[rootIdx]
		var kids []span
		var depth []int
		for _, i := range idxs {
			if i == rootIdx || t.spans[i].End == 0 {
				continue
			}
			d := 0
			for p := i; p >= 0 && p != rootIdx; p = t.spans[p].Parent {
				d++
			}
			kids = append(kids, t.spans[i])
			depth = append(depth, d)
		}
		// Phase records carry no parent of their own: a phase nests under
		// every longer phase of the request that contains it (pairs inside
		// compose, detect inside a lattice level).
		for a := range kids {
			for b := range kids {
				ka, kb := kids[a], kids[b]
				if isPhase[ka.Name] && isPhase[kb.Name] && kb.Start <= ka.Start && kb.End >= ka.End &&
					kb.End-kb.Start > ka.End-ka.Start {
					depth[a]++
				}
			}
		}
		ob := out[root.Name]
		if ob == nil {
			ob = &opBreakdown{layers: map[string]time.Duration{}}
			out[root.Name] = ob
		}
		ob.n++
		ob.total += root.End - root.Start
		for l, d := range attribute(root, kids, depth) {
			ob.layers[l] += d
		}
	}
	return out
}

// report prints, per operation, the traced end-to-end mean, the mean self
// time of each layer plus the unattributed remainder, and the tracing
// overhead: traced minus untraced p50. The self times and the remainder add
// up to the traced mean by construction, since attribute gives every
// segment of a root interval to exactly one layer or to unattributed.
func (t *tracer) report(w io.Writer, traced, plain *phase) {
	bd := t.breakdown()
	ops := make([]string, 0, len(bd))
	for op := range bd {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		ob := bd[op]
		n := time.Duration(ob.n)
		fmt.Fprintf(w, "trace %s: n=%d traced e2e mean %.1f us = ", op, ob.n, us(ob.total/n))
		layers := make([]string, 0, len(ob.layers))
		for l := range ob.layers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var sum time.Duration
		for i, l := range layers {
			if i > 0 {
				fmt.Fprint(w, " + ")
			}
			fmt.Fprintf(w, "%s %.1f", l, us(ob.layers[l]/n))
			sum += ob.layers[l]
		}
		fmt.Fprintf(w, " (sum %.1f)\n", us(sum/n))
	}
	regimes := make([]string, 0, len(traced.led.dists))
	for regime := range traced.led.dists {
		regimes = append(regimes, regime)
	}
	sort.Strings(regimes)
	for _, regime := range regimes {
		tp, _, err1 := traced.led.dist(regime).percentile(50)
		pp, _, err2 := plain.led.dist(regime).percentile(50)
		if err1 == nil && err2 == nil {
			fmt.Fprintf(w, "tracing overhead %s: traced p50 %.1f us - untraced p50 %.1f us = %.1f us\n",
				regime, us(tp), us(pp), us(tp-pp))
		}
	}
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
