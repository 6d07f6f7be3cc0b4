package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/server"
	"repro/internal/wire"
)

// certifyWorkload drives /certify on every statically non-robust subset of
// SmallBank and Auction under all four settings with one closed-loop
// client, in whole passes whose order the seed draws.
//
// TPC-C cells stay out of the timed phase (the layer ladder certifies one
// seed-drawn TPC-C cell): each takes 2-8.5 s, so a seed-drawn handful
// would set the run's throughput by itself, and their certification is
// nondeterministic — certify_table.json marks the cells whose repeated
// sweeps answered both certified and budget.
type certifyWorkload struct {
	seed  uint64
	h     *harness
	ids   map[string]string
	cells []certifyCell
	// table is the committed certify_table.json: cell key -> the status
	// (and, for unrealized, the reason prefix) the acceptance sweep saw.
	table map[string]string
}

// cellOutcome is the table form of one certify answer: "certified",
// "robust", or "unrealized:" plus the leading word of the documented reason
// prefix the reason starts with ("no", "exhausted", "budget").
func cellOutcome(cr *wire.CertifyResponse) string {
	if cr.Status != "unrealized" {
		return cr.Status
	}
	for _, p := range []string{certify.ReasonNoInstantiation, certify.ReasonExhausted, certify.ReasonBudget} {
		if strings.HasPrefix(cr.Reason, p) {
			return "unrealized:" + strings.TrimSuffix(strings.Fields(p)[0], ":")
		}
	}
	return "unrealized:undocumented"
}

func setupCertify(seed uint64, tr *tracer, withTable bool) (*certifyWorkload, error) {
	opts := server.Options{}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		opts.Logger, wrap = tr.logger(), tr.wrap
	}
	h, err := startHarness(opts, 1, wrap)
	if err != nil {
		return nil, err
	}
	w := &certifyWorkload{seed: seed, h: h, ids: map[string]string{}}
	if err := w.prepare(withTable); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

// prepare registers SmallBank and Auction and finds the statically non-robust
// cells with /check, which also warms every block cache the certify
// requests' static checks read. withTable loads the committed table the
// timed phase checks against (off only while writing that table).
func (w *certifyWorkload) prepare(withTable bool) error {
	if withTable {
		raw, err := os.ReadFile(filepath.Join(benchDir, "certify_table.json"))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &w.table); err != nil {
			return err
		}
	}
	for _, bench := range []string{"smallbank", "auction"} {
		id, err := w.register(bench)
		if err != nil {
			return err
		}
		for _, st := range settingNames {
			for _, sel := range subsetsOf(abbrevs(bench)) {
				status, body, err := w.h.do("POST", "/v1/workloads/"+id+"/check",
					mustJSON(wire.CheckRequest{Setting: st, Programs: sel}), "")
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("check %s %s %v: status %d: %v", bench, st, sel, status, err)
				}
				var cr wire.CheckResponse
				if err := json.Unmarshal(body, &cr); err != nil {
					return err
				}
				if cr.Robust {
					continue
				}
				w.cells = append(w.cells, certifyCell{bench: bench, setting: st, sel: sel})
			}
		}
	}
	for _, c := range w.cells {
		if _, ok := w.table[c.key()]; withTable && !ok {
			return fmt.Errorf("certify_table.json has no cell %s", c.key())
		}
	}
	return nil
}

func (w *certifyWorkload) register(bench string) (string, error) {
	status, body, err := w.h.do("POST", "/v1/workloads", mustJSON(wire.RegisterWorkloadRequest{Benchmark: bench}), "")
	if err != nil || status != http.StatusCreated {
		return "", fmt.Errorf("register %s: status %d: %v", bench, status, err)
	}
	var reg wire.RegisterWorkloadResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		return "", err
	}
	w.ids[bench] = reg.ID
	return reg.ID, nil
}

func (w *certifyWorkload) close() error { return w.h.close() }

// send posts one certify request and decodes the answer.
func (w *certifyWorkload) send(c certifyCell, reqID string) (int, *wire.CertifyResponse, []byte, error) {
	r := c.request()
	status, body, err := w.h.do("POST", "/v1/workloads/"+w.ids[c.bench]+r.path, r.body, reqID)
	if err != nil || status != http.StatusOK {
		return status, nil, body, err
	}
	var cr wire.CertifyResponse
	return status, &cr, body, json.Unmarshal(body, &cr)
}

// check compares one answer with the committed table: a non-robust cell
// never answers robust, an unrealized reason carries a documented prefix,
// a cell the table lists as certified stays certified, and a certified
// answer carries its evidence: a schedule and a conflict cycle.
func (w *certifyWorkload) check(c certifyCell, cr *wire.CertifyResponse) error {
	got := cellOutcome(cr)
	switch {
	case got == "robust":
		return fmt.Errorf("%s: statically non-robust cell answered robust", c.key())
	case got == "unrealized:undocumented":
		return fmt.Errorf("%s: unrealized reason %q has no documented prefix", c.key(), cr.Reason)
	case w.table[c.key()] == "certified" && got != "certified":
		return fmt.Errorf("%s: regressed from certified to %s (%s)", c.key(), got, cr.Reason)
	case got == "certified" && (cr.Certificate == nil || cr.Certificate.Schedule == "" || len(cr.Certificate.Cycle) == 0):
		return fmt.Errorf("%s: answered certified without a schedule and a conflict cycle", c.key())
	}
	// A cell the sweeps saw answer differently may answer any outcome they
	// saw, and nothing else.
	if want, ok := strings.CutPrefix(w.table[c.key()], "nondeterministic:"); ok && !slices.Contains(strings.Split(want, "|"), got) {
		return fmt.Errorf("%s: answered %s, the sweeps saw only %s", c.key(), got, want)
	}
	return nil
}

// regimeOf files one answer's latency: certified and budget-bound cells
// never share a distribution; exhausted and no-candidate answers count as
// decided (exhausted) or undecided but are not timed.
func regimeOf(cr *wire.CertifyResponse) string {
	switch cellOutcome(cr) {
	case "certified":
		return "certified"
	case "unrealized:budget":
		return "budget"
	}
	return ""
}

func (w *certifyWorkload) timed(d time.Duration, tr *tracer) *phase {
	led := newLedger()
	hs := startHeapSampler()
	deadline := time.Now().Add(d)
	var decided, attempted int
	var explored int
	// Whole passes only, the last one finishing past the deadline: every
	// run then certifies each cell equally often whatever the seed's order.
	completed, wall := closedLoop(1, deadline, func(_, pass int) int {
		done := 0
		for k, j := range certifyOrder(w.seed, pass, len(w.cells)) {
			c := w.cells[j]
			reqID := tr.id("p", pass, "k", k)
			root := tr.begin("certify", reqID)
			t0 := time.Now()
			tt := tr.begin("transport", reqID)
			status, cr, body, err := w.send(c, reqID)
			tr.end(tt)
			lat := time.Since(t0)
			o := classify(status, err)
			detail := fmt.Sprint(status, " ", err, " ", string(body))
			if o == okOutcome && status != http.StatusOK {
				o = statusOutcome
			}
			regime := ""
			if o == okOutcome {
				if cerr := w.check(c, cr); cerr != nil {
					o, detail = wrongOutcome, cerr.Error()
				} else {
					regime = regimeOf(cr)
					attempted++
					explored += cr.Explored
					if s := cellOutcome(cr); s == "certified" || s == "unrealized:exhausted" {
						decided++
					}
				}
			}
			tr.end(root)
			led.record("certify", o, regime, lat, detail)
			if o == okOutcome {
				done++
			}
		}
		return done
	})
	p := &phase{led: led, completed: completed, wall: wall}
	hs.finish(p)
	p.decided, p.cells, p.explored = decided, attempted, explored
	return p
}

// certifySweeps is how many times writeCertifyTable certifies every cell.
// A cell whose answers differ between sweeps is recorded as
// "nondeterministic:" plus every outcome seen.
const certifySweeps = 4

// writeCertifyTable certifies every statically non-robust cell of all three
// benchmarks (all of TPC-C included) certifySweeps times and writes the
// table the timed phase checks against.
func (w *certifyWorkload) writeCertifyTable(path string) error {
	if _, err := w.register("tpcc"); err != nil {
		return err
	}
	var cells []certifyCell
	for _, bench := range benchNames {
		for _, st := range settingNames {
			for _, sel := range subsetsOf(abbrevs(bench)) {
				cells = append(cells, certifyCell{bench: bench, setting: st, sel: sel})
			}
		}
	}
	seen := map[string]map[string]bool{}
	for sweep := 0; sweep < certifySweeps; sweep++ {
		for _, c := range cells {
			status, cr, body, err := w.send(c, "")
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%s: status %d: %v %s", c.key(), status, err, body)
			}
			if cr.Status == "robust" {
				continue
			}
			if seen[c.key()] == nil {
				seen[c.key()] = map[string]bool{}
			}
			seen[c.key()][cellOutcome(cr)] = true
		}
		logf("sweep %d done", sweep+1)
	}
	table := map[string]string{}
	for k, outs := range seen {
		var list []string
		for o := range outs {
			list = append(list, o)
		}
		sort.Strings(list)
		table[k] = list[0]
		if len(list) > 1 {
			table[k] = "nondeterministic:" + strings.Join(list, "|")
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
