package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// warmServe is the hot read path: SmallBank, TPC-C and Auction registered
// and warmed in set-up, then a seeded mix of check, cached subsets and
// first_non_robust streams from two closed-loop clients.
type warmServe struct {
	seed    uint64
	clients int
	h       *harness
	ids     map[string]string // benchmark -> workload id
	keys    []request         // the seed's key space, drawn from uniformly
	byOp    map[string][]request
	ref     map[string][]byte // request key -> reference response bytes
}

// figure6 is the hand-written Figure 6 golden rows: maximal robust subsets
// under attr+fk with Algorithm 2.
var figure6 = map[string]string{
	"smallbank": "{Am,DC,TS} {Bal,DC} {Bal,TS}",
	"tpcc":      "{NO,Pay} {OS,Pay,SL}",
}

func renderSubsets(sets [][]string) string {
	parts := make([]string, len(sets))
	for i, s := range sets {
		s = append([]string(nil), s...)
		sort.Strings(s)
		parts[i] = "{" + strings.Join(s, ",") + "}"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func setupWarmServe(seed uint64, clients int, tr *tracer) (*warmServe, error) {
	opts := server.Options{}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		opts.Logger, wrap = tr.logger(), tr.wrap
	}
	h, err := startHarness(opts, clients, wrap)
	if err != nil {
		return nil, err
	}
	w := &warmServe{seed: seed, clients: clients, h: h, ids: map[string]string{},
		byOp: map[string][]request{}, ref: map[string][]byte{}}
	if err := w.prepare(); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

func (w *warmServe) prepare() error {
	for _, bench := range benchNames {
		status, body, err := w.h.do("POST", "/v1/workloads", mustJSON(wire.RegisterWorkloadRequest{Benchmark: bench}), "")
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("register %s: status %d: %v %s", bench, status, err, body)
		}
		var reg wire.RegisterWorkloadResponse
		if err := json.Unmarshal(body, &reg); err != nil {
			return err
		}
		w.ids[bench] = reg.ID
	}
	w.keys = warmServeKeys(w.seed)
	keys := w.keys
	for _, r := range keys {
		w.byOp[r.op] = append(w.byOp[r.op], r)
	}
	// Pass 1 warms every cache the timed phase reads (block caches, cores
	// and covers, the result cache); pass 2 captures the reference bytes;
	// pass 3 proves the references are stable under further warm requests.
	for pass := 0; pass < 3; pass++ {
		for _, r := range keys {
			status, body, err := w.send(r, "")
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %v %s", r.key, status, err, body)
			}
			switch pass {
			case 1:
				w.ref[r.key] = body
			case 2:
				if !bytes.Equal(body, w.ref[r.key]) {
					return fmt.Errorf("warm-up: %s answers differently on a warm repeat", r.key)
				}
			}
		}
	}
	robust, nonRobust := 0, 0
	for _, r := range w.byOp["check"] {
		var cr wire.CheckResponse
		if err := json.Unmarshal(w.ref[r.key], &cr); err != nil {
			return err
		}
		if cr.Robust {
			robust++
		} else if cr.Witness != nil {
			nonRobust++
		}
	}
	if robust == 0 || nonRobust == 0 {
		return fmt.Errorf("warm-up: check keys are %d robust and %d non-robust with witness, need both", robust, nonRobust)
	}
	for bench, want := range figure6 {
		var sr wire.SubsetsResponse
		if err := json.Unmarshal(w.ref["subsets|"+bench+"|attr+fk|type2"], &sr); err != nil {
			return err
		}
		if got := renderSubsets(sr.Maximal); got != want {
			return fmt.Errorf("%s attr+fk maximal robust subsets are %s, Figure 6 says %s", bench, got, want)
		}
	}
	return nil
}

// send issues one warm-serve request; streams return their whole NDJSON
// body.
func (w *warmServe) send(r request, reqID string) (int, []byte, error) {
	path := "/v1/workloads/" + w.ids[r.bench] + r.path
	if r.op == "stream" {
		status, _, body, err := w.h.stream(path, r.body, reqID)
		return status, body, err
	}
	return w.h.do("POST", path, r.body, reqID)
}

func (w *warmServe) close() error { return w.h.close() }

// timed drives the closed loop until the deadline.
func (w *warmServe) timed(d time.Duration, tr *tracer) *phase {
	led := newLedger()
	hs := startHeapSampler()
	completed, wall := closedLoop(w.clients, time.Now().Add(d), func(c, i int) int {
		r := warmServeNext(w.seed, c, i, w.keys)
		reqID := tr.id("c", c, "i", i)
		op := tr.begin(r.op, reqID)
		path := "/v1/workloads/" + w.ids[r.bench] + r.path
		t0 := time.Now()
		var (
			status int
			body   []byte
			err    error
			lat    time.Duration
		)
		if r.op == "stream" {
			tt := tr.begin("transport", reqID)
			status, lat, body, err = w.h.stream(path, r.body, reqID)
			tr.end(tt)
		} else {
			tt := tr.begin("transport", reqID)
			status, body, err = w.h.do("POST", path, r.body, reqID)
			tr.end(tt)
			lat = time.Since(t0)
		}
		o := classify(status, err)
		detail := fmt.Sprint(status, err)
		if o == okOutcome && status != http.StatusOK {
			o = statusOutcome
		}
		if o == okOutcome && !bytes.Equal(body, w.ref[r.key]) {
			o, detail = wrongOutcome, r.key+" differs from its set-up reference"
		}
		tr.end(op)
		led.record(r.op, o, r.op, lat, detail)
		if o == okOutcome {
			return 1
		}
		return 0
	})
	p := &phase{led: led, completed: completed, wall: wall}
	hs.finish(p)
	return p
}
