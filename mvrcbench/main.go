// Command mvrcbench is the end-to-end and layer-by-layer benchmark of the
// robustness service. It runs one workload against an in-process
// robustserved behind a loopback TCP listener, checks every answer, and
// prints one JSON result as its last line of output:
//
//	mvrcbench --workload warm-serve|churn|certify --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it holds the per-layer metrics, taken by a traced run and
// by the layer ladder (ladder.go). spec.json says what each metric means on
// each workload and which end-to-end metric each layer metric should move.
// Run it from the repository root (mvrcbench/run.sh builds and runs it).
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchDir is the benchmark's own directory, relative to the repository
// root the benchmark runs from.
const benchDir = "mvrcbench"

// buildDir holds everything a run leaves behind (state dirs, trace files).
const buildDir = ".bench_build"

// setupRepeats is how many times a run sets up its workload; setup_s is the
// median. setupsBefore of them run before the timed phase, the last one
// serving it, and the rest after it, so the median spans the whole run and
// a host that speeds up or slows down during the run moves it less.
const (
	setupRepeats = 21
	setupsBefore = 11
)

//go:embed spec.json
var specJSON []byte

type spec struct {
	Workloads map[string]struct {
		Clients int               `json:"clients"`
		Metrics map[string]string `json:"metrics"`
	} `json:"workloads"`
	Predictions []struct {
		LayerMetric string `json:"layer_metric"`
	} `json:"predictions"`
}

// phase is what one timed phase measured.
type phase struct {
	led                  *ledger
	completed            int
	wall                 time.Duration
	heapLive             *dist // live heap bytes after each GC cycle
	gcCycles, allocBytes uint64
	// certify only: cells answered without error, decided ones (certified
	// or exhausted), and schedules explored.
	cells, decided, explored int
}

// merge adds another phase of the same workload to p.
func (p *phase) merge(o *phase) {
	p.led.merge(o.led)
	p.completed += o.completed
	p.wall += o.wall
	p.heapLive.merge(o.heapLive)
	p.gcCycles += o.gcCycles
	p.allocBytes += o.allocBytes
	p.cells += o.cells
	p.decided += o.decided
	p.explored += o.explored
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fixture is one set-up workload, ready for its timed phase.
type fixture interface {
	timed(d time.Duration, tr *tracer) *phase
	close() error
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	table    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "warm-serve, churn or certify")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and the layer ladder")
	flag.StringVar(&o.table, "write-certify-table", "", "certify every cell once, write the table to this file and exit")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvrcbench:", err)
		os.Exit(1)
	}
	if res != nil {
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared reads the metric names BENCHMARK.json declares, so a run can
// refuse to print a set that differs from it.
func declared() (e2e, layer []string, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, err
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer, nil
}

func sameSet(a []string, b map[string]metric) error {
	var missing, extra []string
	in := map[string]bool{}
	for _, n := range a {
		in[n] = true
		if _, ok := b[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range b {
		if !in[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics differ from BENCHMARK.json: missing %v, not declared %v", missing, extra)
	}
	return nil
}

func run(o options) (*result, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, err
	}
	ws, ok := sp.Workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	e2eNames, layerNames, err := declared()
	if err != nil {
		return nil, err
	}
	procs := gomaxprocs()
	clients := min(ws.Clients, procs)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s/%s; workload %s, seed %d, %d s, closed loop, %d client(s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		o.workload, o.seed, o.seconds, clients)

	stateRoot, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("state-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer removeStateRoot(stateRoot)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var churnFx *churnFixture
	if o.workload == "churn" {
		if churnFx, err = loadChurnFixture(stateRoot); err != nil {
			return nil, err
		}
	}
	setupOnce := func(rep int) (fixture, error) {
		switch o.workload {
		case "warm-serve":
			return setupWarmServe(o.seed, clients, tr)
		case "churn":
			dir := filepath.Join(stateRoot, fmt.Sprint("run", rep))
			return setupChurn(o.seed, clients, churnFx, dir, tr)
		default:
			return setupCertify(o.seed, tr, o.table == "")
		}
	}
	if o.workload == "churn" {
		// The state a previous server left behind is in place before each
		// set-up starts; copying it is not part of set-up.
		for rep := 0; rep < setupRepeats; rep++ {
			if err := copyDir(churnFx.template, filepath.Join(stateRoot, fmt.Sprint("run", rep))); err != nil {
				return nil, err
			}
		}
	}
	var setups []float64
	setUp := func(rep int) (fixture, error) {
		runtime.GC()
		t0 := time.Now()
		fx, err := setupOnce(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return fx, nil
	}
	var fx fixture
	for rep := 0; rep < setupsBefore; rep++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, err
			}
		}
		if fx, err = setUp(rep); err != nil {
			return nil, err
		}
	}
	defer fx.close()

	if o.table != "" {
		cw, ok := fx.(*certifyWorkload)
		if !ok {
			return nil, errors.New("--write-certify-table needs --workload certify")
		}
		return nil, cw.writeCertifyTable(o.table)
	}

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		p := fx.timed(d, nil)
		for rep := setupsBefore; rep < setupRepeats; rep++ {
			more, err := setUp(rep)
			if err != nil {
				return nil, err
			}
			if err := more.close(); err != nil {
				return nil, err
			}
		}
		q1, q2, q3 := quartiles(setups)
		fmt.Printf("setup_s: median %.4f s, quartiles %.4f..%.4f over %d set-ups, %d before and %d after the timed phase\n",
			q2, q1, q3, len(setups), setupsBefore, len(setups)-setupsBefore)
		res, err := endToEnd(o.workload, p, q2, ws.Metrics)
		if err != nil {
			return nil, err
		}
		if err := sameSet(e2eNames, res.Metrics); err != nil {
			return nil, err
		}
		return res, nil
	}
	// Traced run: untraced and traced quarters in the order A B B A, so a
	// drift across the run (a registry filling up, a heap growing) cancels
	// out of the tracing overhead (traced minus untraced); then the ladder.
	q := d / 4
	plain := fx.timed(q, nil)
	tr.enable()
	traced := fx.timed(q, tr)
	tr.enable()
	traced.merge(fx.timed(q, tr))
	tr.disable()
	plain.merge(fx.timed(q, nil))
	for _, n := range append(plain.led.notes, traced.led.notes...) {
		fmt.Println("failure:", n)
	}
	tr.report(os.Stdout, traced, plain)
	if err := tr.write(filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	layers, err := runLadder(o.seed, fx, plain, churnFx, stateRoot)
	if err != nil {
		return nil, err
	}
	predicted := map[string]bool{}
	for _, p := range sp.Predictions {
		predicted[p.LayerMetric] = true
	}
	for n := range layers {
		if !predicted[n] {
			return nil, fmt.Errorf("layer metric %s has no prediction in spec.json", n)
		}
	}
	if err := sameSet(layerNames, layers); err != nil {
		return nil, err
	}
	attempted, failed := traced.led.totals()
	a2, f2 := plain.led.totals()
	return &result{Correct: failed+f2 == 0, Attempted: attempted + a2, Failed: failed + f2, Metrics: layers}, nil
}

// removeStateRoot deletes the run's state dirs. Server.Close returns
// without waiting for the background flusher, so a last snapshot write can
// land while the tree is being removed; a few retries outlast it.
func removeStateRoot(dir string) {
	for try := 0; try < 5; try++ {
		if os.RemoveAll(dir) == nil {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// endToEnd turns a timed phase into the workload's end-to-end metrics,
// printing each timing with its sample count and the samples beyond its
// percentile. It fails when a named percentile has too few samples beyond
// it, or when the workload would emit a metric spec.json does not give it.
func endToEnd(workload string, p *phase, setup float64, owned map[string]string) (*result, error) {
	attempted, failed := p.led.totals()
	ops := make([]string, 0, len(p.led.ops))
	for op := range p.led.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		c := p.led.ops[op]
		var parts []string
		for i, f := range c.failed {
			if f > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[i], f))
			}
		}
		fmt.Printf("op %-13s attempted %7d failed %d %s\n", op, c.attempted, c.failures(), strings.Join(parts, " "))
	}
	for _, n := range p.led.notes {
		fmt.Println("failure:", n)
	}
	m := map[string]metric{
		"setup_s": {setup, "s"},
		"rps":     {float64(p.completed) / p.wall.Seconds(), "1/s"},
	}
	var errs []string
	timing := func(name, regime string, pct float64) float64 {
		d := p.led.dist(regime)
		v, b, err := d.percentile(pct)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s (%s): %v", name, regime, err))
			return 0
		}
		fmt.Printf("%-22s %12.1f us  p%g of %s, n=%d, %d beyond\n", name, us(v), pct, regime, d.n(), b)
		return us(v)
	}
	if v, b, err := p.heapLive.percentile(90); err != nil {
		errs = append(errs, "heap_live_p90_mb: "+err.Error())
	} else {
		m["heap_live_p90_mb"] = metric{float64(v) / (1 << 20), "MB"}
		fmt.Printf("%-22s %12.2f MB  p90 of live heap after GC, n=%d GC cycles, %d beyond\n", "heap_live_p90_mb", float64(v)/(1<<20), p.heapLive.n(), b)
	}
	switch workload {
	case "warm-serve":
		m["main_p50_us"] = metric{timing("check_p50_us", "check", 50), "us"}
		m["main_tail_us"] = metric{timing("check_p99_us", "check", 99), "us"}
		m["side_p50_us"] = metric{timing("subsets_p50_us", "subsets", 50), "us"}
		timing("ttfv_p50_us", "stream", 50)
		timing("ttfv_p99_us", "stream", 99)
	case "churn":
		m["main_p50_us"] = metric{timing("cold_subsets_p50_us", "cold_subsets", 50), "us"}
		m["main_tail_us"] = metric{timing("cold_subsets_p90_us", "cold_subsets", 90), "us"}
		m["side_p50_us"] = metric{timing("reanalyze_p50_us", "reanalyze", 50), "us"}
		timing("fromsql_p50_us", "fromsql", 50)
		timing("patch_p50_us", "patch", 50)
	case "certify":
		m["main_p50_us"] = metric{timing("certify_p50", "certified", 50), "us"}
		m["main_tail_us"] = metric{timing("certify_p90", "certified", 90), "us"}
		m["side_p50_us"] = metric{timing("budget_p50", "budget", 50), "us"}
		if p.cells == 0 {
			errs = append(errs, "certify: no cell answered")
		} else {
			fmt.Printf("%-22s %12.4f    (certified + exhausted) / cells = %d / %d; %d schedules explored\n",
				"decided_share", float64(p.decided)/float64(p.cells), p.decided, p.cells, p.explored)
		}
	}
	if len(errs) > 0 {
		return nil, errors.New(strings.Join(errs, "; "))
	}
	for name := range m {
		if _, ok := owned[name]; !ok {
			return nil, fmt.Errorf("%s emits %s, which spec.json does not give it", workload, name)
		}
	}
	fmt.Printf("%-22s %12.1f    completed %d in %.2f s\n", "rps", m["rps"].Value, p.completed, p.wall.Seconds())
	fmt.Printf("%-22s %12.4f    median of %d set-ups\n", "setup_s", setup, setupRepeats)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
