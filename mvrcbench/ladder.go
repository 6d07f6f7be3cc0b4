package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
	"repro/internal/sqlbtp/dialect"
	"repro/internal/sqlbtp/dialect/mysql"
	"repro/internal/sqlbtp/dialect/postgres"
	"repro/internal/sqlbtp/dialect/sqlite"
	"repro/internal/summary"
	"repro/internal/wire"
)

// The layer ladder replays each workload's seeded inputs at every layer
// boundary, from outside: it times calls into each layer's public
// functions on the same inputs the workload sends. Every traced run climbs
// the whole ladder, so every run prints every per-layer metric; spec.json
// names the workload each rung belongs to and the end-to-end metric it
// should move.

// Rounds per rung: enough samples for a steady median, few enough that the
// whole ladder stays within a few seconds.
const (
	warmRounds  = 20
	churnRounds = 3
	// ladderRegistrations is how many never-seen scripts the eviction rung
	// registers into a registry of the default cap.
	ladderRegistrations = server.DefaultMaxWorkloads + 16
)

type ladder struct {
	m   map[string]metric
	ctx context.Context
}

func (l *ladder) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

// timeEach calls f on every input rounds times and returns the per-call
// latencies.
func timeEach(n, rounds int, f func(i int) error) (*dist, error) {
	d := &dist{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := f(i); err != nil {
				return nil, err
			}
			d.add(time.Since(t0))
		}
	}
	return d, nil
}

func p50(d *dist) time.Duration {
	v, _, _ := d.percentile(50)
	return v
}

func runLadder(seed uint64, fx fixture, plain *phase, churnFx *churnFixture, stateRoot string) (map[string]metric, error) {
	l := &ladder{m: map[string]metric{}, ctx: context.Background()}
	steps := []struct {
		name string
		f    func() error
	}{
		{"warm-serve", func() error { return l.warmServe(seed, fx) }},
		{"churn", func() error { return l.churn(seed, churnFx, stateRoot) }},
		{"certify", func() error { return l.certify(seed) }},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.f(); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", s.name, err)
		}
		fmt.Printf("ladder %s rungs took %.1f s\n", s.name, time.Since(t0).Seconds())
	}
	l.set("runtime.gc_cycles", "count", float64(plain.gcCycles))
	l.set("runtime.alloc_bytes_per_req", "B", float64(plain.allocBytes)/float64(max(plain.completed, 1)))
	return l.m, nil
}

// sessionFor builds a warm analysis session per benchmark, as the server's
// registry holds one per workload.
type benchSession struct {
	b    *benchmarks.Benchmark
	sess *analysis.Session
}

func (bs benchSession) selection(names []string) []*btp.Program {
	if len(names) == 0 {
		return bs.b.Programs
	}
	out := make([]*btp.Program, len(names))
	for i, n := range names {
		out[i] = bs.b.Program(n)
	}
	return out
}

// warmServe climbs the warm-serve rungs: loopback vs in-process handler
// (transport), handler (server), render (wire) and engine (analysis,
// summary) on the seed's check, subsets and stream keys.
func (l *ladder) warmServe(seed uint64, fx fixture) error {
	ws, own := fx.(*warmServe)
	if !own {
		var err error
		if ws, err = setupWarmServe(seed, 1, nil); err != nil {
			return err
		}
		defer ws.close()
	}
	handler := ws.h.srv.Handler()
	inproc := func(r request) func(int) error {
		return func(int) error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/workloads/"+ws.ids[r.bench]+r.path, bytes.NewReader(r.body)))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ws.ref[r.key]) {
				return fmt.Errorf("in-process %s: status %d or bytes differ from the reference", r.key, rec.Code)
			}
			return nil
		}
	}
	loopback := func(r request) func(int) error {
		return func(int) error {
			status, body, err := ws.send(r, "")
			if err != nil || status != http.StatusOK || !bytes.Equal(body, ws.ref[r.key]) {
				return fmt.Errorf("loopback %s: status %d %v or bytes differ from the reference", r.key, status, err)
			}
			return nil
		}
	}
	var loopbackCheck float64
	each := func(keys []request, mk func(request) func(int) error) (*dist, error) {
		return timeEach(len(keys), warmRounds, func(i int) error { return mk(keys[i])(i) })
	}
	for _, op := range []string{"check", "subsets"} {
		keys := ws.byOp[op]
		lb, err := each(keys, loopback)
		if err != nil {
			return err
		}
		hd, err := each(keys, inproc)
		if err != nil {
			return err
		}
		l.set("server."+op+"_p50_us", "us", us(p50(hd)))
		l.set("transport."+op+"_overhead_p50_us", "us", us(p50(lb)-p50(hd)))
		fmt.Printf("ladder %s: loopback p50 %.1f us, handler p50 %.1f us\n", op, us(p50(lb)), us(p50(hd)))
		if op == "check" {
			loopbackCheck = us(p50(lb))
		}
	}
	checks := ws.byOp["check"]
	allocs := testing.AllocsPerRun(warmRounds, func() {
		for i := range checks {
			inproc(checks[i])(i)
		}
	})
	l.set("server.check_allocs", "count", allocs/float64(len(checks)))

	// Stream TTFV inside the handler: the first verdict line written.
	streams := ws.byOp["stream"]
	ttfv := &dist{}
	for r := 0; r < warmRounds; r++ {
		for _, s := range streams {
			tw := &ttfvWriter{ResponseRecorder: httptest.NewRecorder(), t0: time.Now()}
			handler.ServeHTTP(tw, httptest.NewRequest("POST", "/v1/workloads/"+ws.ids[s.bench]+s.path, bytes.NewReader(s.body)))
			if tw.Code != http.StatusOK || tw.ttfv == 0 || !bytes.Equal(tw.Body.Bytes(), ws.ref[s.key]) {
				return fmt.Errorf("in-process stream %s: status %d, no verdict or bytes differ", s.key, tw.Code)
			}
			ttfv.add(tw.ttfv)
		}
	}
	l.set("server.stream_ttfv_p50_us", "us", us(p50(ttfv)))

	st, err := ws.h.stats()
	if err != nil {
		return err
	}
	var hits, misses uint64
	for _, w := range st.WorkloadStats {
		hits += w.ResultCache.Hits
		misses += w.ResultCache.Misses
	}
	l.set("server.result_cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))

	// Engine and wire rungs on warm sessions of their own.
	sessions := map[string]benchSession{}
	for _, name := range benchNames {
		b, _ := benchmarks.ByName(name, 0)
		sessions[name] = benchSession{b, analysis.NewSession(b.Schema)}
	}
	type held struct {
		bs       benchSession
		cfg      analysis.Config
		programs []*btp.Program
		res      *analysis.Result
		ltps     []*btp.LTP
	}
	hs := make([]held, len(checks))
	for i, r := range checks {
		var req wire.CheckRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		cfg, err := req.Config()
		if err != nil {
			return err
		}
		bs := sessions[r.bench]
		progs := bs.selection(req.Programs)
		res, err := bs.sess.CheckCtx(l.ctx, progs, cfg)
		if err != nil {
			return err
		}
		hs[i] = held{bs, cfg, progs, res, res.LTPs}
	}
	eng, err := timeEach(len(hs), warmRounds, func(i int) error {
		_, err := hs[i].bs.sess.CheckCtx(l.ctx, hs[i].programs, hs[i].cfg)
		return err
	})
	if err != nil {
		return err
	}
	l.set("analysis.check_warm_p50_us", "us", us(p50(eng)))
	l.set("analysis.check_warm_allocs", "count", testing.AllocsPerRun(warmRounds, func() {
		for _, h := range hs {
			h.bs.sess.CheckCtx(l.ctx, h.programs, h.cfg)
		}
	})/float64(len(hs)))
	var buf bytes.Buffer
	var bytesOut int
	render, err := timeEach(len(hs), warmRounds, func(i int) error {
		buf.Reset()
		err := wire.WriteJSON(&buf, wire.NewCheckResponse(hs[i].cfg, hs[i].programs, hs[i].res))
		bytesOut += buf.Len()
		return err
	})
	if err != nil {
		return err
	}
	l.set("wire.render_check_p50_us", "us", us(p50(render)))
	l.set("wire.check_bytes", "B", float64(bytesOut)/float64(len(hs)*warmRounds))
	l.set("wire.render_check_allocs", "count", testing.AllocsPerRun(warmRounds, func() {
		for _, h := range hs {
			buf.Reset()
			wire.WriteJSON(&buf, wire.NewCheckResponse(h.cfg, h.programs, h.res))
		}
	})/float64(len(hs)))
	var graphs []*summary.Graph
	compose, err := timeEach(len(hs), warmRounds, func(i int) error {
		g, err := summary.ComposeCtx(l.ctx, hs[i].bs.sess.Blocks(hs[i].cfg.Setting), hs[i].ltps, 0)
		if len(graphs) < len(hs) {
			graphs = append(graphs, g)
		}
		return err
	})
	if err != nil {
		return err
	}
	l.set("summary.compose_p50_us", "us", us(p50(compose)))
	detect, err := timeEach(len(hs), warmRounds, func(i int) error {
		if robust, _ := graphs[i].Robust(hs[i].cfg.Method); robust != hs[i].res.Robust {
			return fmt.Errorf("%s: detector disagrees with the check", checks[i].key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("summary.detect_p50_us", "us", us(p50(detect)))

	firstEmit := &dist{}
	for r := 0; r < warmRounds; r++ {
		for _, s := range streams {
			var req wire.CheckRequest
			if err := json.Unmarshal(s.body, &req); err != nil {
				return err
			}
			cfg, _ := req.Config()
			bs := sessions[s.bench]
			var first time.Duration
			t0 := time.Now()
			_, err := bs.sess.RobustSubsetsStream(l.ctx, bs.b.Programs, cfg,
				analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust}, func(analysis.StreamVerdict) error {
					if first == 0 {
						first = time.Since(t0)
					}
					return nil
				})
			if err != nil {
				return err
			}
			if r > 0 { // round 0 warms the session's cores and covers
				firstEmit.add(first)
			}
		}
	}
	l.set("analysis.ttfv_warm_p50_us", "us", us(p50(firstEmit)))

	// The handler does the engine's work and more, the loopback round trip
	// the handler's and more: a ladder out of this order is mismeasured.
	hd, en := l.m["server.check_p50_us"].Value, l.m["analysis.check_warm_p50_us"].Value
	fmt.Printf("ladder warm check: engine %.1f us < handler %.1f us < loopback %.1f us\n", en, hd, loopbackCheck)
	if !(en < hd && hd < loopbackCheck) {
		return fmt.Errorf("warm check ladder out of order: engine %.1f us, handler %.1f us, loopback %.1f us", en, hd, loopbackCheck)
	}
	return nil
}

// ttfvWriter records when the handler writes its first verdict line.
type ttfvWriter struct {
	*httptest.ResponseRecorder
	t0   time.Time
	ttfv time.Duration
}

func (w *ttfvWriter) Write(b []byte) (int, error) {
	if w.ttfv == 0 && bytes.Contains(b, []byte(`{"programs"`)) {
		w.ttfv = time.Since(w.t0)
	}
	return w.ResponseRecorder.Write(b)
}

var profiles = map[string]func() *dialect.Profile{
	"postgres": postgres.Profile, "mysql": mysql.Profile, "sqlite": sqlite.Profile,
}

// churn climbs the churn rungs on the seed's renamed corpus scripts:
// compile (parse, lower), fingerprint, unfold, pairs, detector build, cold
// subsets, patch parse, re-analysis, snapshot save and load, and registry
// eviction.
func (l *ladder) churn(seed uint64, fx *churnFixture, stateRoot string) error {
	if fx == nil {
		var err error
		if fx, err = loadChurnFixture(stateRoot); err != nil {
			return err
		}
	}
	dir := filepath.Join(stateRoot, "ladder")
	store, err := snapshot.OpenFS(dir, tmpfsFS{})
	if err != nil {
		return err
	}
	type input struct {
		c      combo
		tag    string
		script string
	}
	var ins []input
	for r := 0; r < churnRounds; r++ {
		for i := range churnCombos() {
			c := churnCombo(seed, 9, r*len(churnCombos())+i)
			tag := renameTag(seed, 9, r*len(churnCombos())+i)
			s, _ := renameScript(fx.scripts[c], tag)
			ins = append(ins, input{c, tag, s})
		}
	}
	compile := map[string]*dist{}
	all, parse := &dist{}, &dist{}
	rungs := map[string]*dist{}
	rung := func(name string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		d := rungs[name]
		if d == nil {
			d = &dist{}
			rungs[name] = d
		}
		d.add(time.Since(t0))
		return nil
	}
	var ltpCount, pairs, detectorRuns, subsets, pruned int
	var blockHits, blockMisses uint64
	var saved int64
	for _, in := range ins {
		t0 := time.Now()
		wl, err := sqlbtp.Compile(sqlbtp.Source{Dialect: in.c.dialect, Script: in.script})
		if err != nil {
			return err
		}
		el := time.Since(t0)
		if compile[in.c.dialect] == nil {
			compile[in.c.dialect] = &dist{}
		}
		compile[in.c.dialect].add(el)
		all.add(el)
		t0 = time.Now()
		if _, err := dialect.ParseScript(profiles[in.c.dialect](), in.script); err != nil {
			return err
		}
		parse.add(time.Since(t0))
		var fp string
		rung("fingerprint", func() error { fp = snapshot.Fingerprint(wl.Schema, wl.Programs); return nil })
		var ltps []*btp.LTP
		rung("unfold", func() error { ltps = btp.UnfoldAll(wl.Programs, btp.DefaultUnfoldBound); return nil })
		ltpCount += len(ltps)
		bs := summary.NewBlockSet(wl.Schema, summary.SettingAttrDepFK)
		if err := rung("pairs", func() error { return bs.EnsureCtx(l.ctx, ltps, 0) }); err != nil {
			return err
		}
		pairs += int(bs.Stats().Misses)
		if err := rung("detector", func() error { _, err := summary.NewSubsetDetectorCtx(l.ctx, bs, ltps, 0); return err }); err != nil {
			return err
		}
		sess := analysis.NewSession(wl.Schema)
		var rep *analysis.SubsetReport
		if err := rung("cold", func() error {
			var err error
			rep, err = sess.RobustSubsetsCtx(l.ctx, wl.Programs, analysis.DefaultConfig())
			return err
		}); err != nil {
			return err
		}
		detectorRuns += rep.Checked
		pruned += rep.Pruned
		subsets += rep.Checked + rep.Pruned
		pt := patchTarget[in.c.bench]
		target := pt.program + "_" + in.tag
		var next *btp.Program
		if err := rung("patch_parse", func() error {
			var err error
			next, err = sqlbtp.ParseProgram(wl.Schema, fmt.Sprintf(pt.body, target))
			return err
		}); err != nil {
			return err
		}
		patched := make([]*btp.Program, len(wl.Programs))
		var old *btp.Program
		for i, p := range wl.Programs {
			patched[i] = p
			if p.Name == target {
				old, next.Abbrev, patched[i] = p, p.Abbrev, next
			}
		}
		before := sess.Stats().Blocks
		if err := rung("reanalyze", func() error {
			sess.Invalidate(old)
			_, err := sess.RobustSubsetsCtx(l.ctx, patched, analysis.DefaultConfig())
			return err
		}); err != nil {
			return err
		}
		after := sess.Stats().Blocks
		blockHits += after.Hits - before.Hits
		blockMisses += after.Misses - before.Misses
		f, err := snapshotFile(fp, wl.Schema, wl.Programs)
		if err != nil {
			return err
		}
		if err := rung("save", func() error { return store.Save(f) }); err != nil {
			return err
		}
		if fi, err := os.Stat(filepath.Join(dir, fp+".json")); err == nil {
			saved += fi.Size()
		}
	}
	n := float64(len(ins))
	for _, d := range dialects {
		l.set("sqlbtp.compile_"+d+"_p50_us", "us", us(p50(compile[d])))
	}
	l.set("sqlbtp.parse_p50_us", "us", us(p50(parse)))
	l.set("sqlbtp.lower_p50_us", "us", us(p50(all)-p50(parse)))
	l.set("snapshot.fingerprint_p50_us", "us", us(p50(rungs["fingerprint"])))
	l.set("btp.unfold_p50_us", "us", us(p50(rungs["unfold"])))
	l.set("btp.ltps", "count", float64(ltpCount)/n)
	l.set("summary.pairs_p50_us", "us", us(p50(rungs["pairs"])))
	l.set("summary.pairs_computed", "count", float64(pairs)/n)
	l.set("summary.detector_build_p50_us", "us", us(p50(rungs["detector"])))
	l.set("analysis.subsets_cold_p50_us", "us", us(p50(rungs["cold"])))
	l.set("analysis.detector_runs", "count", float64(detectorRuns)/n)
	l.set("analysis.pruned_share", "ratio", float64(pruned)/float64(max(subsets, 1)))
	l.set("sqlbtp.patch_parse_p50_us", "us", us(p50(rungs["patch_parse"])))
	l.set("analysis.reanalyze_p50_us", "us", us(p50(rungs["reanalyze"])))
	l.set("summary.block_hit_ratio", "ratio", float64(blockHits)/float64(max(blockHits+blockMisses, 1)))
	l.set("snapshot.save_p50_us", "us", us(p50(rungs["save"])))
	l.set("snapshot.save_bytes", "B", float64(saved)/n)
	t0 := time.Now()
	files, skipped, err := store.LoadAll()
	if err != nil || len(skipped) > 0 || len(files) == 0 {
		return fmt.Errorf("LoadAll: %d files, skipped %v: %v", len(files), skipped, err)
	}
	l.set("snapshot.loadall_ms", "ms", ms(time.Since(t0)))

	// Eviction: never-seen scripts registered into a registry of the
	// default cap, counted by /v1/stats.
	srv := server.New(server.Options{StateDir: filepath.Join(stateRoot, "ladder-evict"), SnapshotFS: tmpfsFS{}})
	defer srv.Close()
	h := srv.Handler()
	for i := 0; i < ladderRegistrations; i++ {
		c := churnCombo(seed, 10, i)
		s, _ := renameScript(fx.scripts[c], renameTag(seed, 10, i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/workloads:fromSQL", bytes.NewReader(mustJSON(wire.FromSQLRequest{Dialect: c.dialect, Script: s}))))
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("eviction rung: register: status %d %s", rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st wire.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return err
	}
	l.set("server.evictions", "count", float64(st.Evictions))
	return nil
}

// snapshotFile builds the snapshot the server would persist for a freshly
// registered workload.
func snapshotFile(fp string, schema *relschema.Schema, programs []*btp.Program) (*snapshot.File, error) {
	f := &snapshot.File{Format: snapshot.Format, ID: fp, Content: fp, Schema: snapshot.FromSchema(schema)}
	for _, p := range programs {
		sp, err := snapshot.FromProgram(p)
		if err != nil {
			return nil, err
		}
		f.Programs = append(f.Programs, sp)
	}
	return f, nil
}

// certify climbs the certification rungs — realize, search, replay — on
// the swept SmallBank and Auction cells plus one seed-drawn TPC-C cell,
// the way certify.Subset chains them, and re-verifies every certificate
// found from its schedule alone.
func (l *ladder) certify(seed uint64) error {
	realizeD, searchD, replayD := &dist{}, &dist{}, &dist{}
	var explored, cells, certified int
	var searchTotal time.Duration
	var tpcc []certifyCell
	for _, name := range benchNames {
		b, _ := benchmarks.ByName(name, 0)
		bs := benchSession{b, analysis.NewSession(b.Schema)}
		for _, st := range settingNames {
			cfg, err := (&wire.CheckRequest{Setting: st}).Config()
			if err != nil {
				return err
			}
			for _, sel := range subsetsOf(abbrevs(name)) {
				res, err := bs.sess.CheckCtx(l.ctx, bs.selection(sel), cfg)
				if err != nil {
					return err
				}
				if res.Robust {
					continue
				}
				if name == "tpcc" {
					tpcc = append(tpcc, certifyCell{name, st, sel})
					continue
				}
				if err := l.certifyCell(b, cfg, res.Witness, realizeD, searchD, replayD, &explored, &certified, &searchTotal); err != nil {
					return fmt.Errorf("%s %s %v: %w", name, st, sel, err)
				}
				cells++
			}
		}
		if name == "tpcc" {
			for _, c := range drawTPCC(seed, tpcc, 1) {
				cfg, _ := (&wire.CheckRequest{Setting: c.setting}).Config()
				res, err := bs.sess.CheckCtx(l.ctx, bs.selection(c.sel), cfg)
				if err != nil {
					return err
				}
				if err := l.certifyCell(b, cfg, res.Witness, realizeD, searchD, replayD, &explored, &certified, &searchTotal); err != nil {
					return fmt.Errorf("%s: %w", c.key(), err)
				}
				cells++
			}
		}
	}
	l.set("certify.realize_p50_us", "us", us(p50(realizeD)))
	l.set("certify.search_p50_ms", "ms", ms(p50(searchD)))
	l.set("certify.replay_p50_us", "us", us(p50(replayD)))
	l.set("certify.schedules_explored", "count", float64(explored)/float64(cells))
	l.set("certify.search_us_per_schedule", "us", us(searchTotal)/float64(max(explored, 1)))
	fmt.Printf("ladder certify: %d cells, %d certificates re-verified, %d schedules explored\n", cells, certified, explored)
	return nil
}

func (l *ladder) certifyCell(b *benchmarks.Benchmark, cfg analysis.Config, w *summary.Witness,
	realizeD, searchD, replayD *dist, explored, certified *int, searchTotal *time.Duration) error {
	t0 := time.Now()
	var lists [][]enumerate.Instance
	for _, extra := range []bool{false, true} {
		set, _ := realize.CandidateSets(b.Schema, w, realize.Options{
			MaxSchedules: certifyMaxSchedules, ExtraInstances: extra, IgnoreFKs: !cfg.Setting.UseForeignKeys})
	cands:
		for _, c := range set {
			for id, inst := range c.Instances {
				if _, err := instantiate.Instantiate(b.Schema, inst.LTP, id+1, inst.Assignment); err != nil {
					continue cands
				}
			}
			lists = append(lists, c.Instances)
		}
	}
	realizeD.add(time.Since(t0))
	if len(lists) == 0 {
		return nil
	}
	t0 = time.Now()
	search, _, err := enumerate.FindAnyCounterexampleCtx(l.ctx, b.Schema, lists, 0, enumerate.Options{MaxSchedules: certifyMaxSchedules})
	if err != nil {
		return err
	}
	el := time.Since(t0)
	searchD.add(el)
	*searchTotal += el
	*explored += search.Explored
	if !search.Found {
		return nil
	}
	t0 = time.Now()
	rep, err := replay.Run(b.Schema, search.Schedule)
	if err != nil {
		return err
	}
	replayD.add(time.Since(t0))
	if rep.Serializable {
		return fmt.Errorf("found schedule replays serializable")
	}
	if err := (&certify.Certificate{Schedule: search.Schedule}).Verify(b.Schema); err != nil {
		return fmt.Errorf("certificate does not verify: %w", err)
	}
	*certified++
	return nil
}
