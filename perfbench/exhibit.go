package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupPerExhibit is how many `cosim table1` runs (setup_s samples)
// precede each exhibit run. setup_s and a child's fork plus exec take
// milliseconds, so their medians need many samples, spread over the
// whole run so that a momentary stall of the host cannot move them.
const setupPerExhibit = 4

// exhibitArgs are the cosim flags of an exhibit run: default flags
// apart from the scale, the seed and CSV output.
func exhibitArgs(exhibit string, seed int64) []string {
	if exhibit == "cosimd-mix" {
		return nil
	}
	return []string{"-scale", scaleFlag, "-seed", strconv.FormatInt(seed, 10), "-csv", exhibit}
}

// runExhibit measures one exhibit end to end: back-to-back exhibit
// runs, each preceded by a few `cosim table1` runs for setup_s (process
// start plus dataset construction, which every exhibit pays first),
// until the next round would overrun --seconds. Each exhibit run is one
// request in the latency and throughput metrics (spawn to exit, and its
// reciprocal); submit_p50_ms is a child's fork plus exec.
func runExhibit(ctx context.Context, cfg config, t *tally) (map[string]float64, error) {
	cosim := filepath.Join(cfg.Bin, "cosim")
	seed := exhibitSeed(cfg.Seed)
	var setup, starts, wall, cpu, rss, rate []float64
	budget := time.Duration(cfg.Seconds) * time.Second
	t0 := time.Now()
	for n := 1; ctx.Err() == nil; n++ {
		for i := 0; i < setupPerExhibit; i++ {
			r, err := runChild(ctx, cosim, "-scale", scaleFlag, "-seed", strconv.FormatInt(seed, 10), "table1")
			if t.record(err) {
				setup = append(setup, r.Wall.Seconds())
				starts = append(starts, ms(r.Start))
			}
		}
		r, err := runChild(ctx, cosim, exhibitArgs(cfg.Workload, seed)...)
		if err == nil {
			err = cfg.Goldens.checkExhibitCSV(cfg.Workload, seed, r.Stdout)
		}
		if t.record(err) {
			wall = append(wall, r.Wall.Seconds())
			cpu = append(cpu, r.CPU.Seconds())
			rss = append(rss, r.PeakRSSMiB)
			starts = append(starts, ms(r.Start))
			rate = append(rate, 1/r.Wall.Seconds())
		}
		elapsed := time.Since(t0)
		if elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	lat := make([]float64, len(wall))
	for i, w := range wall {
		lat[i] = w * 1000
	}
	latency := summarize(lat)
	printTimings(map[string]timing{
		"wall_s": summarize(wall), "setup_s": summarize(setup), "cpu_s": summarize(cpu),
		"latency_ms": latency, "submit_ms": summarize(starts),
	})
	return map[string]float64{
		"wall_s":          median(wall),
		"setup_s":         median(setup),
		"cpu_s":           median(cpu),
		"peak_rss_mb":     median(rss),
		"latency_p50_ms":  latency.Median,
		"latency_tail_ms": latency.Tail,
		"submit_p50_ms":   median(starts),
		"throughput_rps":  median(rate),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printTimings prints each timing's median, tail percentile and sample
// count on stdout ahead of the result line.
func printTimings(ts map[string]timing) {
	names := make([]string, 0, len(ts))
	for n := range ts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# timing %-14s %s\n", n, ts[n])
	}
}
