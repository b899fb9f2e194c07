package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// runTraced is the --trace 1 run: the layer tracer replays the
// workload's inputs in process, then a server pass sends the same
// specs through a fresh cosimd with client-side phase timestamps. Both
// halves check their answers against the goldens.
func runTraced(ctx context.Context, cfg config, t *tally) (map[string]float64, error) {
	layersBin := filepath.Join(cfg.Bin, "perfbench-layers")
	specsPath := filepath.Join(cfg.Work, "specs.json")
	args := []string{"-spans", filepath.Join(cfg.Work, "spans.jsonl")}
	var lists [mixClients][]request
	var check func(sweepSpec, []byte) error
	seed := exhibitSeed(cfg.Seed)
	if cfg.Workload == "cosimd-mix" {
		lists = mixEpisode(cfg.Seed)
		var fresh []sweepSpec
		for _, l := range lists {
			for _, r := range l {
				if r.Kind != "repeat" {
					fresh = append(fresh, r.Spec)
				}
			}
		}
		b, err := json.Marshal(fresh)
		if err != nil {
			return nil, err
		}
		in := filepath.Join(cfg.Work, "mix-specs.json")
		if err := os.WriteFile(in, b, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-specs", in)
		check = cfg.Goldens.checkMixResult
	} else {
		engine, err := cliDefaultEngine(filepath.Join(cfg.Bin, "cosim"))
		if err != nil {
			return nil, err
		}
		fmt.Printf("# traced engine %s (the cosim CLI's default)\n", engine)
		args = append(args, "-exhibit", cfg.Workload, "-scale", scaleFlag, "-seed", strconv.FormatInt(seed, 10), "-engine", engine, "-specs-out", specsPath)
		check = func(spec sweepSpec, body []byte) error {
			_, heads, err := parseServed(spec, body)
			if err != nil {
				return err
			}
			for i, h := range heads[0] {
				if err := cfg.Goldens.checkExhibitMPKI(cfg.Workload, seed, spec.Workload, i, h.MPKI); err != nil {
					return err
				}
			}
			return nil
		}
	}

	m := map[string]float64{}
	r, err := runChild(ctx, layersBin, args...)
	var out struct {
		Metrics map[string]float64 `json:"metrics"`
		Results []struct {
			Workload string  `json:"workload"`
			Seed     int64   `json:"seed"`
			Index    int     `json:"index"`
			Config   string  `json:"config"`
			MPKI     float64 `json:"mpki"`
			Digest   string  `json:"digest"`
		} `json:"results"`
		Spans string `json:"spans"`
	}
	if err == nil {
		err = json.Unmarshal(r.Stdout, &out)
	}
	if t.record(err) {
		for k, v := range out.Metrics {
			m[k] = v
		}
		for _, res := range out.Results {
			var err error
			if cfg.Workload == "cosimd-mix" {
				err = cfg.Goldens.checkMixDigest(res.Workload, res.Seed, res.Config, res.Digest)
			} else {
				err = cfg.Goldens.checkExhibitMPKI(cfg.Workload, seed, res.Workload, res.Index, res.MPKI)
			}
			t.record(err)
		}
		fmt.Printf("# spans %s\n", out.Spans)
	}

	if cfg.Workload != "cosimd-mix" {
		specs, err := readSpecFile(specsPath)
		if !t.record(err) {
			return m, nil
		}
		// Each client sends its half of the workloads, then repeats
		// them: the second half is answered from the result cache.
		for i, s := range specs {
			lists[i%mixClients] = append(lists[i%mixClients], request{"sweep", s})
		}
		for c := range lists {
			for _, r := range lists[c] {
				lists[c] = append(lists[c], request{"repeat", r.Spec})
			}
		}
	}
	ep, ok := runEpisode(ctx, filepath.Join(cfg.Bin, "cosimd"), lists, check, t)
	if !ok {
		return m, nil
	}
	var sub, queue, exe []float64
	retries := 0
	for _, o := range ep.Outcomes {
		retries += o.Retries
		if o.Err != nil {
			continue
		}
		sub = append(sub, ms(o.Sub.Sub(o.T0)))
		// A repeat is answered at admission and neither queues nor
		// executes, so only the requests that run are timed here.
		if o.Req.Kind != "repeat" {
			queue = append(queue, ms(o.Active.Sub(o.Sub)))
			exe = append(exe, ms(o.End.Sub(o.Active)))
		}
	}
	printTimings(map[string]timing{"server.submit_ms": summarize(sub), "server.queue_wait_ms": summarize(queue), "server.exec_ms": summarize(exe)})
	st := ep.Statusz
	m["server.submit_ms"] = median(sub)
	m["server.queue_wait_ms"] = median(queue)
	m["server.exec_ms"] = median(exe)
	m["server.result_cache_hit_ratio"] = frac(float64(st.Jobs.Cached), float64(st.Jobs.Done))
	m["server.retries_429"] = float64(retries)
	m["tracestore.dedupe_ratio"] = frac(float64(st.Jobs.Done), float64(st.TraceStore.Misses))
	return m, nil
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func readSpecFile(path string) ([]sweepSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []sweepSpec
	if err := json.Unmarshal(b, &specs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

var engineDefault = regexp.MustCompile(`-engine string\s*\n[^\n]*\(default "([a-z]+)"\)`)

// cliDefaultEngine reads the sweep engine cosim runs under by default
// from its usage text, so the traced replay follows the CLI as it is.
// Usage text without an -engine default is an error: the traced replay
// must not guess the engine.
func cliDefaultEngine(cosim string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, cosim, "-h")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil && stderr.Len() == 0 {
		return "", fmt.Errorf("cosim -h: %w", err)
	}
	if m := engineDefault.FindSubmatch(stderr.Bytes()); m != nil {
		return string(m[1]), nil
	}
	return "", fmt.Errorf("cosim -h names no -engine default: %s", tail(stderr.Bytes(), 400))
}
