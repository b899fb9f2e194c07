package main

// The benchmark's self-test:
//
//	cd perfbench && go test ./...
//
// The unit tests need nothing built. TestEndToEnd also runs the real
// programs when run.sh has built them into ../.bench_build/bin, and is
// skipped otherwise (and under -short).

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestMetricNamesAndUnits(t *testing.T) {
	decl, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.endToEnd) == 0 || len(decl.perLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	for _, set := range []map[string]string{decl.endToEnd, decl.perLayer} {
		for name, unit := range set {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, metricName)
			}
			if units[name] != unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, perfbench unit %q", name, unit, units[name])
			}
		}
	}
	for name := range units {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if _, e2e := decl.endToEnd[name]; !e2e {
			if _, pl := decl.perLayer[name]; !pl {
				t.Errorf("perfbench metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	want := map[string]string{"wall_s": "s", "cpu_s": "s"}
	if p := checkDeclared(map[string]metric{"wall_s": {1, "s"}, "cpu_s": {2, "s"}}, want); len(p) != 0 {
		t.Fatalf("complete set flagged: %v", p)
	}
	for name, got := range map[string]map[string]metric{
		"missing":   {"wall_s": {1, "s"}},
		"extra":     {"wall_s": {1, "s"}, "cpu_s": {2, "s"}, "x": {3, "s"}},
		"unit":      {"wall_s": {1, "ms"}, "cpu_s": {2, "s"}},
		"malformed": {"wall_s": {1, "s"}, "cpu_s": {2, "s"}, "bad name": {3, "s"}},
	} {
		if p := checkDeclared(got, want); len(p) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("mismatch"))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally %+v, want 2 attempted 1 failed", tl)
	}
}

func loadTestGoldens(t *testing.T) *goldens {
	t.Helper()
	g, err := loadGoldens("goldens/goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A corrupted exhibit output and a tampered golden both fail the check.
func TestExhibitGoldenCheck(t *testing.T) {
	g := loadTestGoldens(t)
	for _, ex := range []string{"fig4", "fig7"} {
		for s := int64(1); s <= exhibitSeeds; s++ {
			if _, ok := g.Exhibits[ex][strconv.FormatInt(s, 10)]; !ok {
				t.Fatalf("no golden for %s seed %d", ex, s)
			}
		}
		out := []byte(g.Exhibits[ex]["1"])
		if err := g.checkExhibitCSV(ex, 1, out); err != nil {
			t.Fatalf("%s: golden output rejected: %v", ex, err)
		}
		bad := append([]byte(nil), out...)
		bad[len(bad)-2] ^= 1
		if g.checkExhibitCSV(ex, 1, bad) == nil {
			t.Errorf("%s: corrupted output passed", ex)
		}
		orig := g.Exhibits[ex]["1"]
		g.Exhibits[ex]["1"] = strings.Replace(orig, ",", ";", 1)
		if g.checkExhibitCSV(ex, 1, out) == nil {
			t.Errorf("%s: output passed against a tampered golden", ex)
		}
		g.Exhibits[ex]["1"] = orig
		cell, err := g.exhibitCell(ex, 1, "MDS", 0)
		if err != nil {
			t.Fatal(err)
		}
		var mpki float64
		if err := json.Unmarshal([]byte(cell), &mpki); err != nil {
			t.Fatal(err)
		}
		if err := g.checkExhibitMPKI(ex, 1, "MDS", 0, mpki); err != nil {
			t.Errorf("%s: golden MPKI rejected: %v", ex, err)
		}
		if g.checkExhibitMPKI(ex, 1, "MDS", 0, mpki+0.001) == nil {
			t.Errorf("%s: wrong MPKI passed", ex)
		}
	}
}

// A served result passes against digests of itself and fails when a
// byte of it or of a golden digest changes.
func TestMixGoldenCheck(t *testing.T) {
	spec := mixSpec("MDS", 3, sizeGrid([]int{4, 8}))
	summary := `{"Workload":"MDS","Instructions":100}`
	cfgs := []string{`{"LLC":{"Name":"llc-16384B-64B-16w"},"MPKI":1.5}`, `{"LLC":{"Name":"llc-32768B-64B-16w"},"MPKI":1.25}`}
	body := []byte(`{"workload":"MDS","summary":` + summary + `,"grids":[[` + strings.Join(cfgs, ",") + `]]}`)
	g := &goldens{Mix: map[string]mixGolden{"MDS/3": {Summary: digest([]byte(summary)), Configs: map[string]string{
		"llc-16384B-64B-16w": digest([]byte(cfgs[0])), "llc-32768B-64B-16w": digest([]byte(cfgs[1])),
	}}}}
	if err := g.checkMixResult(spec, body); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	if g.checkMixResult(spec, []byte(strings.Replace(string(body), "1.25", "1.26", 1))) == nil {
		t.Error("corrupted result passed")
	}
	if g.checkMixResult(mixSpec("MDS", 3, sizeGrid([]int{4, 16})), body) == nil {
		t.Error("result for another grid passed")
	}
	g.Mix["MDS/3"].Configs["llc-16384B-64B-16w"] = digest([]byte("tampered"))
	if g.checkMixResult(spec, body) == nil {
		t.Error("result passed against a tampered golden")
	}
	real := loadTestGoldens(t)
	for _, w := range mixWorkloads {
		for s := int64(1); s <= mixSeedPool; s++ {
			if len(real.Mix[mixKey(w, s)].Configs) != 13 {
				t.Errorf("mix golden %s has %d configs, want 13", mixKey(w, s), len(real.Mix[mixKey(w, s)].Configs))
			}
		}
	}
}

// The mix is a function of the seed, spans at least two workloads, and
// has the documented shape.
func TestMixEpisodeShape(t *testing.T) {
	a, b := mixEpisode(5), mixEpisode(5)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed, different mix")
	}
	kinds := map[string]int{}
	workloads := map[string]bool{}
	fresh := map[string]bool{}
	for _, l := range a {
		if len(l) != 7*mixRounds {
			t.Fatalf("client list has %d requests", len(l))
		}
		repeats := 0
		for _, r := range l {
			kinds[r.Kind]++
			if r.Kind == "repeat" {
				repeats++
			}
			workloads[r.Spec.Workload] = true
			if r.Kind != "repeat" {
				j, _ := json.Marshal(r.Spec)
				if fresh[string(j)] {
					t.Errorf("new spec repeated: %s", j)
				}
				fresh[string(j)] = true
			}
		}
		// Cache hits are the majority, so latency_p50_ms falls on one.
		if 2*repeats <= len(l) {
			t.Errorf("client list has %d repeats of %d requests", repeats, len(l))
		}
	}
	if len(workloads) < 2 || kinds["repeat"] != 8*mixRounds || kinds["capture"] != 2*mixRounds {
		t.Errorf("mix shape: kinds %v workloads %v", kinds, workloads)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := summarize(xs); s.TailPct != 95 || s.N != 200 {
		t.Errorf("200 samples: tail p%g", s.TailPct)
	}
	if s := summarize(xs[:5]); s.TailPct != 100 || s.Tail != 4 {
		t.Errorf("5 samples: tail p%g = %g", s.TailPct, s.Tail)
	}
}

// TestEndToEnd runs each workload briefly through the built programs:
// every declared metric comes out, every operation passes, and a
// tampered golden turns passing runs into failed operations.
func TestEndToEnd(t *testing.T) {
	bin, _ := filepath.Abs("../.bench_build/bin")
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, b := range []string{"cosim", "cosimd", "perfbench-layers"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			t.Skipf("%s not built (run perfbench/run.sh with --trace 1 first)", b)
		}
	}
	decl, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && wl == "fig7" {
				continue // fig4 covers the exhibit path of the traced run
			}
			cfg := config{Workload: wl, Seed: 1, Seconds: 1, Trace: traced, Bin: bin, Work: t.TempDir(), Goldens: loadTestGoldens(t)}
			out, err := measure(cfg, decl)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", wl, traced, out.Correct, out.Failed)
			}
		}
		g := loadTestGoldens(t)
		for k := range g.Exhibits["fig4"] {
			g.Exhibits["fig4"][k] = strings.Replace(g.Exhibits["fig4"][k], "0", "1", 1)
		}
		for k, m := range g.Mix {
			m.Summary = digest([]byte(k))
			g.Mix[k] = m
		}
		if wl == "fig7" {
			continue
		}
		out, err := measure(config{Workload: wl, Seed: 1, Seconds: 1, Bin: bin, Work: t.TempDir(), Goldens: g}, decl)
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s against tampered goldens: correct=%v failed=%d of %d", wl, out.Correct, out.Failed, out.Attempted)
		}
	}
}
