package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/btp"
	"repro/internal/faultfs"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// tmpfsFS is the snapshot store's filesystem for the churn workload: the
// real filesystem under the checkout, with fsync a no-op as it is on tmpfs.
// The benchmark may only write inside its checkout, which need not be on
// tmpfs, and fsync on a shared disk swings the register and PATCH latencies
// by far more than any change under test would. Everything else — the
// temp-file + rename protocol, the default FlushInterval debounce,
// synchronous register and PATCH persists — is the server's own.
type tmpfsFS struct{ faultfs.OS }

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

func (fs tmpfsFS) Create(name string) (faultfs.File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (tmpfsFS) SyncDir(string) error { return nil }

// corpusDir is the golden SQL corpus, read from the checkout.
const corpusDir = "internal/sqlbtp/testdata"

// expectation is what one benchmark's churn cycle must answer, modulo the
// renaming: the cold verdicts (expected.json), the PATCH bookkeeping
// (expected.json) and the post-patch verdicts (the naive oracle on the
// patched program set, computed in set-up).
type expectation struct {
	ColdMaximal      string `json:"cold_maximal"`
	ColdRobust       int    `json:"cold_robust"`
	InvalidatedPairs int    `json:"invalidated_pairs"`
	patchedMaximal   string
	patchedRobust    int
}

// churnFixture holds what every churn set-up starts from: the corpus
// scripts and the state directory a previous server left behind.
type churnFixture struct {
	scripts  map[combo]string
	template string // snapshot files a previous run left in its state dir
	expected map[string]*expectation
}

func loadChurnFixture(stateRoot string) (*churnFixture, error) {
	fx := &churnFixture{scripts: map[combo]string{}}
	for _, c := range churnCombos() {
		b, err := os.ReadFile(filepath.Join(corpusDir, c.dialect, c.bench+".sql"))
		if err != nil {
			return nil, err
		}
		fx.scripts[c] = string(b)
	}
	raw, err := os.ReadFile(filepath.Join(benchDir, "expected.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &fx.expected); err != nil {
		return nil, err
	}
	// The boot-restore state: the golden corpus registered once by an
	// earlier server on the same state directory.
	fx.template = filepath.Join(stateRoot, "template")
	if err := os.RemoveAll(fx.template); err != nil {
		return nil, err
	}
	srv := server.New(server.Options{StateDir: fx.template, SnapshotFS: tmpfsFS{}})
	for _, c := range churnCombos() {
		rec := httptest.NewRecorder()
		body := mustJSON(wire.FromSQLRequest{Dialect: c.dialect, Script: fx.scripts[c]})
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/workloads:fromSQL", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
			srv.Close()
			return nil, fmt.Errorf("template: register %v: status %d %s", c, rec.Code, rec.Body.String())
		}
	}
	return fx, srv.Close()
}

// copyDir copies the snapshot files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

type churn struct {
	seed    uint64
	clients int
	fx      *churnFixture
	h       *harness
}

func setupChurn(seed uint64, clients int, fx *churnFixture, dir string, tr *tracer) (*churn, error) {
	opts := server.Options{StateDir: dir, SnapshotFS: tmpfsFS{}}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		opts.Logger, wrap = tr.logger(), tr.wrap
	}
	h, err := startHarness(opts, clients, wrap)
	if err != nil {
		return nil, err
	}
	w := &churn{seed: seed, clients: clients, fx: fx, h: h}
	if err := w.prepare(); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

// patchedPrograms compiles a corpus script and replaces its PATCH target
// with the alternate body, exactly as the server does.
func patchedPrograms(bench, script, dialect string) (*sqlbtp.Workload, []*btp.Program, error) {
	wl, err := sqlbtp.Compile(sqlbtp.Source{Dialect: dialect, Script: script})
	if err != nil {
		return nil, nil, err
	}
	pt := patchTarget[bench]
	name := pt.program
	next, err := sqlbtp.ParseProgram(wl.Schema, fmt.Sprintf(pt.body, name))
	if err != nil {
		return nil, nil, err
	}
	out := make([]*btp.Program, len(wl.Programs))
	found := false
	for i, p := range wl.Programs {
		out[i] = p
		if p.Name == name {
			cp := *next
			cp.Abbrev = p.Abbrev
			out[i], found = &cp, true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("%s has no program %s", bench, name)
	}
	return wl, out, nil
}

func (w *churn) prepare() error {
	st, err := w.h.stats()
	if err != nil {
		return err
	}
	if st.SnapshotsLoaded != len(benchNames) {
		return fmt.Errorf("boot restored %d workloads, want %d", st.SnapshotsLoaded, len(benchNames))
	}
	// Post-patch verdicts: the naive oracle on each patched program set.
	for _, bench := range benchNames {
		c := combo{bench, "postgres"}
		wl, patched, err := patchedPrograms(bench, w.fx.scripts[c], c.dialect)
		if err != nil {
			return err
		}
		rep, err := robust.NewChecker(wl.Schema).NaiveRobustSubsets(patched)
		if err != nil {
			return err
		}
		e := w.fx.expected[bench]
		if e == nil {
			return fmt.Errorf("expected.json has no %s", bench)
		}
		e.patchedRobust = len(rep.Robust)
		maximal := make([][]string, len(rep.Maximal))
		for i, s := range rep.Maximal {
			maximal[i] = s
		}
		e.patchedMaximal = renderSubsets(maximal)
	}
	// Warm-up: one full cycle on each corpus script, checked like the
	// timed ones, so the timed phase starts from a steady heap and warm
	// code paths (the analysis itself stays cold by construction).
	led := newLedger()
	for i, c := range churnCombos() {
		w.cycle(led, c, "warm"+fmt.Sprint(i), nil, 0, 0)
	}
	if _, failed := led.totals(); failed > 0 {
		return fmt.Errorf("warm-up cycles failed: %s", strings.Join(led.notes, "; "))
	}
	return nil
}

// close stops the server. Its state dir stays until the run removes its
// whole state root: Server.Close does not wait for the background flusher,
// which may still be writing a snapshot when Close returns.
func (w *churn) close() error { return w.h.close() }

// cycle runs one churn cycle — register a never-seen script from SQL, cold
// subsets, PATCH, subsets again — and checks every answer. It returns the
// number of requests completed.
func (w *churn) cycle(led *ledger, c combo, tag string, tr *tracer, client, i int) int {
	e := w.fx.expected[c.bench]
	script, renamed := renameScript(w.fx.scripts[c], tag)
	done := 0
	call := func(op, method, path string, body []byte, check func([]byte) error) bool {
		reqID := tr.id("c", client, "i", i, op)
		root := tr.begin(op, reqID)
		t0 := time.Now()
		tt := tr.begin("transport", reqID)
		status, out, err := w.h.do(method, path, body, reqID)
		tr.end(tt)
		lat := time.Since(t0)
		o := classify(status, err)
		detail := fmt.Sprint(status, " ", err, " ", string(out))
		want := http.StatusOK
		if op == "fromsql" {
			want = http.StatusCreated
		}
		if o == okOutcome && status != want {
			o = statusOutcome
		}
		if o == okOutcome {
			if cerr := check(out); cerr != nil {
				o, detail = wrongOutcome, cerr.Error()
			}
		}
		tr.end(root)
		led.record(op, o, op, lat, detail)
		if o == okOutcome {
			done++
		}
		return o == okOutcome
	}
	var id string
	if !call("fromsql", "POST", "/v1/workloads:fromSQL",
		mustJSON(wire.FromSQLRequest{Dialect: c.dialect, Script: script}), func(b []byte) error {
			var reg wire.RegisterWorkloadResponse
			if err := json.Unmarshal(b, &reg); err != nil {
				return err
			}
			if !reg.Created || len(reg.Programs) != renamed {
				return fmt.Errorf("fromSQL: created=%v with %d programs, want a fresh workload of %d", reg.Created, len(reg.Programs), renamed)
			}
			id = reg.ID
			return nil
		}) {
		return done
	}
	verdict := func(maximal string, robust int) func([]byte) error {
		return func(b []byte) error {
			var sr wire.SubsetsResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				return err
			}
			got := make([][]string, len(sr.Maximal))
			for i, s := range sr.Maximal {
				got[i] = make([]string, len(s))
				for j, n := range s {
					got[i][j] = stripTag(n, tag)
				}
			}
			if g := renderSubsets(got); g != maximal || len(sr.Robust) != robust {
				return fmt.Errorf("%v: maximal %s (%d robust), want %s (%d robust)", c, g, len(sr.Robust), maximal, robust)
			}
			return nil
		}
	}
	base := "/v1/workloads/" + id
	if !call("cold_subsets", "POST", base+"/subsets", []byte("{}"), verdict(e.ColdMaximal, e.ColdRobust)) {
		return done
	}
	target := patchTarget[c.bench].program + "_" + tag
	if !call("patch", "PATCH", base+"/programs/"+target,
		mustJSON(wire.PatchProgramRequest{SQL: fmt.Sprintf(patchTarget[c.bench].body, target)}), func(b []byte) error {
			var pr wire.PatchProgramResponse
			if err := json.Unmarshal(b, &pr); err != nil {
				return err
			}
			if pr.InvalidatedPairs != e.InvalidatedPairs || pr.InvalidatedResults != 1 {
				return fmt.Errorf("%v: PATCH invalidated %d pairs and %d results, want %d and 1", c, pr.InvalidatedPairs, pr.InvalidatedResults, e.InvalidatedPairs)
			}
			return nil
		}) {
		return done
	}
	call("reanalyze", "POST", base+"/subsets", []byte("{}"), verdict(e.patchedMaximal, e.patchedRobust))
	return done
}

func (w *churn) timed(d time.Duration, tr *tracer) *phase {
	led := newLedger()
	hs := startHeapSampler()
	completed, wall := closedLoop(w.clients, time.Now().Add(d), func(c, i int) int {
		return w.cycle(led, churnCombo(w.seed, c, i), renameTag(w.seed, c, i), tr, c, i)
	})
	p := &phase{led: led, completed: completed, wall: wall}
	hs.finish(p)
	return p
}
