package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/wire"
)

// The generator turns a workload seed into the exact inputs the server
// receives. Everything it returns is a pure function of the seed (and, for
// a closed loop, of the client index and the request number), so the same
// seed replays the same request sequence.

// benchNames are the registered benchmarks, in the order the server's
// built-in registration names them.
var benchNames = []string{"smallbank", "tpcc", "auction"}

var settingNames = []string{"tpl", "attr", "tpl+fk", "attr+fk"}

var methodNames = []string{"type1", "type2"}

var dialects = []string{"postgres", "mysql", "sqlite"}

// abbrevs lists each benchmark's programs by short name, in registration
// order.
func abbrevs(bench string) []string {
	b, err := benchmarks.ByName(bench, 0)
	if err != nil {
		panic(err)
	}
	out := make([]string, len(b.Programs))
	for i, p := range b.Programs {
		out[i] = p.Abbrev
	}
	return out
}

// request is one generated HTTP request: the operation it belongs to, its
// key (identical keys must answer identical bytes) and its wire form.
type request struct {
	op    string // "check", "subsets", "stream", ...
	bench string
	key   string
	path  string // relative to /v1/workloads/{id}
	body  []byte
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// warmServeKeys is the warm-serve key space drawn from the seed: for each
// benchmark one program selection of every size (the seed picks which
// subset of that size), each under all four settings and both methods for
// check; every (benchmark, setting, method) for subsets and for the
// first_non_robust stream. Drawing one selection per size keeps the mix of
// check costs the same from seed to seed.
func warmServeKeys(seed uint64) []request {
	rng := rand.New(rand.NewPCG(seed, 0x77a6))
	var out []request
	for _, bench := range benchNames {
		progs := abbrevs(bench)
		for size := 1; size <= len(progs); size++ {
			perm := rng.Perm(len(progs))[:size]
			sel := make([]string, size)
			for i, j := range perm {
				sel[i] = progs[j]
			}
			for _, st := range settingNames {
				for _, m := range methodNames {
					body := mustJSON(wire.CheckRequest{Setting: st, Method: m, Programs: sel})
					out = append(out, request{op: "check", bench: bench,
						key:  fmt.Sprintf("check|%s|%s|%s|%s", bench, st, m, strings.Join(sel, ",")),
						path: "/check", body: body})
				}
			}
		}
		for _, st := range settingNames {
			for _, m := range methodNames {
				body := mustJSON(wire.CheckRequest{Setting: st, Method: m})
				out = append(out,
					request{op: "subsets", bench: bench,
						key:  fmt.Sprintf("subsets|%s|%s|%s", bench, st, m),
						path: "/subsets", body: body},
					request{op: "stream", bench: bench,
						key:  fmt.Sprintf("stream|%s|%s|%s", bench, st, m),
						path: "/subsets:stream?mode=first_non_robust", body: body})
			}
		}
	}
	return out
}

// warmServeNext draws client c's i-th warm-serve request uniformly from the
// key space, so each operation's share is its share of the keys: 96 check,
// 24 subsets and 24 stream keys, about 67/17/17 %.
func warmServeNext(seed uint64, c, i int, keys []request) request {
	rng := rand.New(rand.NewPCG(seed^0x5eed, uint64(c)<<32|uint64(i)))
	return keys[rng.IntN(len(keys))]
}

// churnCombos is every (benchmark, dialect) pair of the golden SQL corpus.
type combo struct{ bench, dialect string }

func churnCombos() []combo {
	var out []combo
	for _, b := range benchNames {
		for _, d := range dialects {
			out = append(out, combo{b, d})
		}
	}
	return out
}

// churnCombo picks client c's i-th churn cycle's corpus script: every nine
// cycles visit all nine (benchmark, dialect) pairs once, in an order drawn
// from the seed, so the mix of cold-analysis costs is the same for every
// seed and only its order varies.
func churnCombo(seed uint64, c, i int) combo {
	all := churnCombos()
	round := i / len(all)
	rng := rand.New(rand.NewPCG(seed^0xc4a2, uint64(c)<<32|uint64(round)))
	perm := rng.Perm(len(all))
	return all[perm[i%len(all)]]
}

// renameTag is the suffix client c's i-th churn cycle appends to every
// program name, so each registered script has a fingerprint the server has
// never seen.
func renameTag(seed uint64, c, i int) string {
	return fmt.Sprintf("s%xc%dn%d", seed, c, i)
}

var programDirective = regexp.MustCompile(`(?m)^-- program (\w+)(?: as (\w+))?[ \t]*$`)

// renameScript appends "_"+tag to every program name and abbreviation of a
// corpus script. It returns the renamed script and the number of programs
// renamed.
func renameScript(script, tag string) (string, int) {
	n := 0
	out := programDirective.ReplaceAllStringFunc(script, func(line string) string {
		n++
		m := programDirective.FindStringSubmatch(line)
		s := "-- program " + m[1] + "_" + tag
		if m[2] != "" {
			s += " as " + m[2] + "_" + tag
		}
		return s
	})
	return out, n
}

// stripTag undoes renameScript on one reported program name.
func stripTag(name, tag string) string { return strings.TrimSuffix(name, "_"+tag) }

// patchTarget is the program each benchmark's churn cycle PATCHes, and the
// fixed alternate body it is replaced with (the Appendix A dialect; %s is
// the program's current, renamed name).
var patchTarget = map[string]struct{ program, body string }{
	// The deposit goes to Savings instead of Checking.
	"smallbank": {"DepositChecking", `
PROGRAM %s(:name, :amount):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q1
  UPDATE Savings SET Balance = Balance + :amount WHERE CustomerId = :c;  -- q2
  -- @fk q2 = fS(q1)
COMMIT;
`},
	// FindBids no longer counts its call on the Buyer tuple.
	"auction": {"FindBids", `
PROGRAM %s(:buyer, :minimum):
  SELECT bid FROM Bids WHERE bid >= :minimum;  -- q1
COMMIT;
`},
	// StockLevel no longer reads Stock.
	"tpcc": {"StockLevel", `
PROGRAM %s(:w, :d, :threshold):
  SELECT d_next_o_id INTO :o FROM District WHERE d_id = :d AND d_w_id = :w;  -- q1
  SELECT ol_i_id FROM Order_Line
    WHERE ol_w_id = :w AND ol_d_id = :d AND ol_o_id < :o;  -- q2
COMMIT;
`},
}

// certifyCell is one /certify request: a statically non-robust program
// subset of a benchmark under one setting.
type certifyCell struct {
	bench   string
	setting string
	sel     []string
}

func (c certifyCell) key() string {
	return c.bench + "|" + c.setting + "|" + strings.Join(c.sel, ",")
}

// certifyMaxSchedules is the acceptance sweep's per-candidate budget.
const certifyMaxSchedules = 10000

func (c certifyCell) request() request {
	body := mustJSON(wire.CertifyRequest{
		CheckRequest: wire.CheckRequest{Setting: c.setting, Programs: c.sel},
		MaxSchedules: certifyMaxSchedules,
	})
	return request{op: "certify", bench: c.bench, key: c.key(), path: "/certify", body: body}
}

// subsetsOf lists every non-empty subset of progs, smallest first.
func subsetsOf(progs []string) [][]string {
	var out [][]string
	for size := 1; size <= len(progs); size++ {
		for mask := 1; mask < 1<<len(progs); mask++ {
			var sel []string
			for i, p := range progs {
				if mask&(1<<i) != 0 {
					sel = append(sel, p)
				}
			}
			if len(sel) == size {
				out = append(out, sel)
			}
		}
	}
	return out
}

// certifyOrder is the order of the certify timed phase's pass over the
// swept cells: a fresh seed-drawn permutation per pass.
func certifyOrder(seed uint64, pass, n int) []int {
	rng := rand.New(rand.NewPCG(seed^0xce27, uint64(pass)))
	return rng.Perm(n)
}

// drawTPCC picks k of the statically non-robust TPC-C cells from the seed.
func drawTPCC(seed uint64, cells []certifyCell, k int) []certifyCell {
	rng := rand.New(rand.NewPCG(seed^0x79cc, 1))
	perm := rng.Perm(len(cells))
	out := make([]certifyCell, 0, k)
	for _, j := range perm[:min(k, len(perm))] {
		out = append(out, cells[j])
	}
	return out
}
