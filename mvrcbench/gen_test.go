package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
)

func TestSameSeedSameRequests(t *testing.T) {
	seq := func(seed uint64) []string {
		keys := warmServeKeys(seed)
		var out []string
		for c := 0; c < 2; c++ {
			for i := 0; i < 500; i++ {
				r := warmServeNext(seed, c, i, keys)
				out = append(out, r.key+string(r.body))
			}
			for i := 0; i < 50; i++ {
				cb := churnCombo(seed, c, i)
				out = append(out, cb.bench+cb.dialect+renameTag(seed, c, i))
			}
		}
		for pass := 0; pass < 3; pass++ {
			for _, j := range certifyOrder(seed, pass, 88) {
				out = append(out, string(rune('0'+j%10)))
			}
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same request sequence")
	}
}

func TestChurnRoundVisitsEveryScript(t *testing.T) {
	seen := map[combo]int{}
	for i := 0; i < 2*len(churnCombos()); i++ {
		seen[churnCombo(3, 1, i)]++
	}
	for _, c := range churnCombos() {
		if seen[c] != 2 {
			t.Fatalf("%v visited %d times in two rounds, want 2", c, seen[c])
		}
	}
}

func TestRenamedScriptsGetDistinctFingerprints(t *testing.T) {
	fps := map[string]string{}
	for _, c := range churnCombos() {
		raw, err := os.ReadFile(filepath.Join("..", corpusDir, c.dialect, c.bench+".sql"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			tag := renameTag(5, 0, i)
			s, n := renameScript(string(raw), tag)
			wl, err := sqlbtp.Compile(sqlbtp.Source{Dialect: c.dialect, Script: s})
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if n != len(wl.Programs) || n == 0 {
				t.Fatalf("%v: renamed %d programs of %d", c, n, len(wl.Programs))
			}
			for _, p := range wl.Programs {
				if stripTag(p.Name, tag) == p.Name {
					t.Fatalf("%v: program %s kept its name", c, p.Name)
				}
			}
			fp := snapshot.Fingerprint(wl.Schema, wl.Programs)
			// The corpus is fingerprint-identical across dialects, so only
			// the tag may tell two registrations apart.
			key := c.bench + "|" + tag
			if prev, ok := fps[fp]; ok && prev != key {
				t.Fatalf("%v tag %s collides with %s", c, tag, prev)
			}
			fps[fp] = key
		}
	}
	if len(fps) != len(benchNames)*3 {
		t.Fatalf("%d distinct fingerprints, want %d", len(fps), len(benchNames)*3)
	}
}
