package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// goldenPath holds every expected output, recorded with
// --record-goldens from the programs at the commit that introduced the
// benchmark. The input space is finite on purpose so that every run,
// whatever its seed, is checked byte for byte.
const goldenPath = "perfbench/goldens/goldens.json"

// exhibitSeeds is the number of dataset seeds the exhibits cycle
// through; --seed n runs the exhibit with -seed exhibitSeed(n).
const exhibitSeeds = 16

func exhibitSeed(seed int64) int64 {
	m := (seed - 1) % exhibitSeeds
	if m < 0 {
		m += exhibitSeeds
	}
	return m + 1
}

type goldens struct {
	Scale string `json:"scale"`
	// TuningSeed is the seed the benchmark was tuned on; HeldOutSeed one
	// it was not, for confirming a claim on unseen inputs.
	TuningSeed  int64 `json:"tuning_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// Exhibits maps exhibit → program seed → the exact CSV stdout.
	Exhibits map[string]map[string]string `json:"exhibits"`
	// Mix maps "WORKLOAD/seed" → digests of that trace's served results.
	Mix map[string]mixGolden `json:"mix"`
}

// mixGolden holds SHA-256 digests of the JSON a sweep result carries:
// the run summary, and each config's result by config name. A config's
// result depends only on the trace and its geometry, never on the grid
// around it, so one recording covers every grid the mix can draw.
type mixGolden struct {
	Summary string            `json:"summary"`
	Configs map[string]string `json:"configs"`
}

func loadGoldens(path string) (*goldens, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read goldens: %w", err)
	}
	var g goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Scale != scaleFlag {
		return nil, fmt.Errorf("%s: recorded at scale %s, the benchmark runs at %s", path, g.Scale, scaleFlag)
	}
	return &g, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkExhibitCSV compares one exhibit's stdout with its golden bytes.
func (g *goldens) checkExhibitCSV(exhibit string, seed int64, out []byte) error {
	want, ok := g.Exhibits[exhibit][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no golden for %s seed %d", exhibit, seed)
	}
	if !bytes.Equal(out, []byte(want)) {
		return fmt.Errorf("%s seed %d: CSV differs from golden (got %d bytes, want %d)", exhibit, seed, len(out), len(want))
	}
	return nil
}

// exhibitCell returns the golden CSV cell of one workload at one
// config index (the CSV prints MPKI with %.4f).
func (g *goldens) exhibitCell(exhibit string, seed int64, workload string, index int) (string, error) {
	csv := g.Exhibits[exhibit][strconv.FormatInt(seed, 10)]
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return "", fmt.Errorf("no golden for %s seed %d", exhibit, seed)
	}
	col := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == workload {
			col = i
		}
	}
	if col < 0 || index+1 >= len(lines) {
		return "", fmt.Errorf("%s golden has no cell for %s config %d", exhibit, workload, index)
	}
	cells := strings.Split(lines[index+1], ",")
	if col >= len(cells) {
		return "", fmt.Errorf("%s golden row %d is short", exhibit, index)
	}
	return cells[col], nil
}

// checkExhibitMPKI checks one config's MPKI against the exhibit's CSV.
func (g *goldens) checkExhibitMPKI(exhibit string, seed int64, workload string, index int, mpki float64) error {
	want, err := g.exhibitCell(exhibit, seed, workload, index)
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%.4f", mpki); got != want {
		return fmt.Errorf("%s seed %d %s config %d: MPKI %s, golden %s", exhibit, seed, workload, index, got, want)
	}
	return nil
}

// servedResult is the part of a sweep result the checks read, with
// the summary and per-config results kept as the exact bytes served.
type servedResult struct {
	Workload string              `json:"workload"`
	Summary  json.RawMessage     `json:"summary"`
	Grids    [][]json.RawMessage `json:"grids"`
}

type configHead struct {
	LLC  struct{ Name string } `json:"LLC"`
	MPKI float64               `json:"MPKI"`
}

// parseServed splits a result body and checks that its grids mirror
// the spec's, config for config.
func parseServed(spec sweepSpec, body []byte) (servedResult, [][]configHead, error) {
	var r servedResult
	if err := json.Unmarshal(body, &r); err != nil {
		return r, nil, fmt.Errorf("result: %w", err)
	}
	if !strings.EqualFold(r.Workload, spec.Workload) || len(r.Grids) != len(spec.Grids) {
		return r, nil, fmt.Errorf("result for %s with %d grids does not answer spec for %s with %d grids",
			r.Workload, len(r.Grids), spec.Workload, len(spec.Grids))
	}
	heads := make([][]configHead, len(r.Grids))
	for gi, grid := range r.Grids {
		if len(grid) != len(spec.Grids[gi]) {
			return r, nil, fmt.Errorf("result grid %d has %d configs, spec %d", gi, len(grid), len(spec.Grids[gi]))
		}
		heads[gi] = make([]configHead, len(grid))
		for ci, raw := range grid {
			if err := json.Unmarshal(raw, &heads[gi][ci]); err != nil {
				return r, nil, fmt.Errorf("result grid %d config %d: %w", gi, ci, err)
			}
			if want := spec.Grids[gi][ci].name(); heads[gi][ci].LLC.Name != want {
				return r, nil, fmt.Errorf("result grid %d config %d is %q, spec asked for %q", gi, ci, heads[gi][ci].LLC.Name, want)
			}
		}
	}
	return r, heads, nil
}

// checkMixResult checks a served result of a mix spec digest by digest.
func (g *goldens) checkMixResult(spec sweepSpec, body []byte) error {
	r, heads, err := parseServed(spec, body)
	if err != nil {
		return err
	}
	key := mixKey(spec.Workload, spec.Seed)
	want, ok := g.Mix[key]
	if !ok {
		return fmt.Errorf("no golden for mix key %s", key)
	}
	if digest(r.Summary) != want.Summary {
		return fmt.Errorf("%s: run summary differs from golden", key)
	}
	for gi, grid := range r.Grids {
		for ci, raw := range grid {
			name := heads[gi][ci].LLC.Name
			if d, ok := want.Configs[name]; !ok || d != digest(raw) {
				return fmt.Errorf("%s config %s: result differs from golden", key, name)
			}
		}
	}
	return nil
}

// checkMixDigest checks one config result the layer tracer computed.
func (g *goldens) checkMixDigest(workload string, seed int64, config, d string) error {
	key := mixKey(workload, seed)
	if want, ok := g.Mix[key].Configs[config]; !ok || want != d {
		return fmt.Errorf("%s config %s: traced replay differs from golden", key, config)
	}
	return nil
}

func mixKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/%d", strings.ToUpper(workload), seed)
}

// recordGoldens recomputes every golden: each exhibit's CSV for every
// exhibit seed, and every mix trace's results over the whole size and
// line grid universe through `cosim sweep`, the local twin of cosimd.
func recordGoldens(bin, path string) error {
	ctx := context.Background()
	cosim := filepath.Join(bin, "cosim")
	g := goldens{Scale: scaleFlag, TuningSeed: 1, HeldOutSeed: 7, Exhibits: map[string]map[string]string{}, Mix: map[string]mixGolden{}}
	for _, ex := range []string{"fig4", "fig7"} {
		g.Exhibits[ex] = map[string]string{}
		for s := int64(1); s <= exhibitSeeds; s++ {
			res, err := runChild(ctx, cosim, exhibitArgs(ex, s)...)
			if err != nil {
				return err
			}
			g.Exhibits[ex][strconv.FormatInt(s, 10)] = string(res.Stdout)
			fmt.Fprintf(os.Stderr, "recorded %s seed %d (%v)\n", ex, s, res.Wall)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "spec-*.json")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	for _, w := range mixWorkloads {
		for s := int64(1); s <= mixSeedPool; s++ {
			spec := mixSpec(w, s, sizeGrid(allSizes()), lineGrid(allLines()))
			b, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			if err := os.WriteFile(tmp.Name(), b, 0o644); err != nil {
				return err
			}
			res, err := runChild(ctx, cosim, "-spec", tmp.Name(), "sweep")
			if err != nil {
				return err
			}
			r, heads, err := parseServed(spec, bytes.TrimSpace(res.Stdout))
			if err != nil {
				return err
			}
			mg := mixGolden{Summary: digest(r.Summary), Configs: map[string]string{}}
			for gi, grid := range r.Grids {
				for ci, raw := range grid {
					name := heads[gi][ci].LLC.Name
					if prev, ok := mg.Configs[name]; ok && prev != digest(raw) {
						return fmt.Errorf("%s/%d: config %s answered differently in two grids", w, s, name)
					}
					mg.Configs[name] = digest(raw)
				}
			}
			g.Mix[mixKey(w, s)] = mg
			fmt.Fprintf(os.Stderr, "recorded mix %s/%d (%v)\n", w, s, res.Wall)
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
