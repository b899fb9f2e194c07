// Command perfbench-layers is the traced half of the repository
// benchmark. It replays one benchmark workload's inputs (the same
// traces, grids and engine the end-to-end run uses) through the
// simulator's layers in separate passes, timing calls into each
// layer's public functions from outside the program:
//
//	capture  registry.New, core.RunWorkload with no snoopers, then again
//	         with a tracestore.Recorder fed in 64-ref batches
//	plan     core.PlanSweep
//	replay   Trace.Player + StreamPlayer.NextBatch (decode), then fsb.Bus
//	         dispatch to one no-op snooper per planned snooper, then the
//	         oracle, Dragonhead and cache.Cache each in a pass of its own
//
// Passes are timed whole or per 64-ref batch, never per ref. A layer
// measured by subtraction (fsb dispatch, Dragonhead's AF) is the pass
// with the layer minus the pass without it. Spans stay in memory and
// are written as JSON lines when the run ends. The whole sequence runs
// three times: a warm-up, untraced, then traced, so the tracing
// overhead is measured.
//
// Usage:
//
//	perfbench-layers -exhibit fig4 -scale 0.00390625 -seed 1 -engine emulate -specs-out specs.json
//	perfbench-layers -specs specs.json
//
// The result is one JSON object on stdout: per-layer metrics, plus each
// config's MPKI and result digest so the caller can check them against
// goldens.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/oracle"
	"cmpmem/internal/server"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-layers:", err)
		os.Exit(1)
	}
}

// output is the JSON document printed on stdout.
type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Results []configResult     `json:"results"`
	Spans   string             `json:"spans"`
}

// configResult is one config of one sweep as the traced passes computed it.
type configResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Index    int     `json:"index"`
	Config   string  `json:"config"`
	MPKI     float64 `json:"mpki"`
	Digest   string  `json:"digest"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench-layers", flag.ContinueOnError)
	specsIn := fs.String("specs", "", "JSON array of sweep specs to replay")
	exhibit := fs.String("exhibit", "", "build the specs of this exhibit (fig4 or fig7) instead of reading -specs")
	scale := fs.Float64("scale", workloads.DefaultScale, "with -exhibit, the footprint scale")
	seed := fs.Int64("seed", 1, "with -exhibit, the dataset seed")
	engine := fs.String("engine", core.EngineEmulate.String(), "with -exhibit, the sweep engine the exhibit runs under")
	specsOut := fs.String("specs-out", "", "write the specs replayed here")
	spansOut := fs.String("spans", "spans.jsonl", "write the traced run's spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var raw []json.RawMessage
	var err error
	switch {
	case *exhibit != "":
		raw, err = exhibitSpecs(*exhibit, *scale, *seed, *engine)
	case *specsIn != "":
		raw, err = readSpecs(*specsIn)
	default:
		return fmt.Errorf("need -exhibit or -specs")
	}
	if err != nil {
		return err
	}
	specs := make([]*server.SweepSpec, len(raw))
	for i, r := range raw {
		if specs[i], err = server.DecodeSpec(bytes.NewReader(r)); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	if *specsOut != "" {
		b, err := json.Marshal(specs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*specsOut, b, 0o644); err != nil {
			return err
		}
	}

	// A discarded warm-up lets the heap grow and lazy set-up finish, so
	// the untraced and traced runs that follow compare like for like.
	if err := replayAll(specs, newTracer(false)); err != nil {
		return err
	}
	t0 := time.Now()
	if err := replayAll(specs, newTracer(false)); err != nil {
		return err
	}
	untracedWall := time.Since(t0)

	tr := newTracer(true)
	gc0 := readGoMetrics()
	t0 = time.Now()
	tr.start = t0
	if err := replayAll(specs, tr); err != nil {
		return err
	}
	tracedWall := time.Since(t0)
	gc1 := readGoMetrics()
	tr.spans = append(tr.spans, span{Name: "traced-run", Start: 0, End: tracedWall.Nanoseconds(), Parent: -1, Run: tr.run})

	m := tr.metrics()
	m["trace.overhead_pct"] = 100 * (tracedWall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds()
	m["trace.unattributed_s"] = tracedWall.Seconds() - tr.attributed().Seconds()
	m["go.alloc_bytes_per_ref"] = ratio(gc1.allocBytes-gc0.allocBytes, float64(tr.replayedRefs))
	m["go.gc_cpu_s"] = gc1.gcCPU - gc0.gcCPU

	results, err := digests(tr.results)
	if err != nil {
		return err
	}
	if err := writeSpans(*spansOut, tr.spans); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(output{Metrics: m, Results: results, Spans: *spansOut})
}

// exhibitSpecs lowers one exhibit into sweep specs, one per workload:
// the same grid, platform and seeds core.CacheSweep / core.LineSweep
// hand to each workload's sweep.
func exhibitSpecs(exhibit string, scale float64, seed int64, engine string) ([]json.RawMessage, error) {
	var grid []cache.Config
	var threads int
	switch exhibit {
	case "fig4":
		grid, threads = core.CacheSweepConfigs(scale), 8
	case "fig7":
		grid, threads = core.LineSweepConfigs(scale), 32
	default:
		return nil, fmt.Errorf("unknown exhibit %q", exhibit)
	}
	wire := make([]server.ConfigSpec, len(grid))
	for i, c := range grid {
		wire[i] = server.ConfigSpec{Name: c.Name, SizeBytes: c.Size, LineSize: c.LineSize, Assoc: c.Assoc}
	}
	var out []json.RawMessage
	for _, name := range registry.Names() {
		b, err := json.Marshal(server.SweepSpec{
			Workload: name,
			Seed:     seed,
			Scale:    scale,
			Platform: server.PlatformSpec{Threads: threads, Seed: seed},
			Grids:    [][]server.ConfigSpec{wire},
			Engine:   engine,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func readSpecs(path string) ([]json.RawMessage, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return raw, nil
}

// traceKey is what one capture serves: specs that agree on it replay
// the same trace, as they do in the tracestore.
type traceKey struct {
	workload string
	p        workloads.Params
	pc       core.PlatformConfig
}

func keyOf(s *server.SweepSpec) traceKey {
	return traceKey{
		workload: s.Workload,
		p:        workloads.Params{Seed: s.Seed, Scale: s.Scale},
		pc: core.PlatformConfig{
			Threads: s.Platform.Threads, Quantum: s.Platform.Quantum,
			HostNoiseRefs: s.Platform.Noise, Seed: s.Platform.Seed,
		},
	}
}

// replayAll captures each distinct trace once, then replays every spec
// over it, one key at a time so only one trace is resident.
func replayAll(specs []*server.SweepSpec, tr *tracer) error {
	var order []traceKey
	byKey := map[traceKey][]*server.SweepSpec{}
	for _, s := range specs {
		k := keyOf(s)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], s)
	}
	for _, k := range order {
		t, err := capturePasses(k, tr)
		if err != nil {
			return err
		}
		for _, s := range byKey[k] {
			if err := sweepPasses(k, s, t, tr); err != nil {
				return fmt.Errorf("%s seed %d: %w", k.workload, k.p.Seed, err)
			}
		}
	}
	return nil
}

// capturePasses times the guest execution with no snoopers, then
// executes again into a recorder and returns the encoded trace.
func capturePasses(k traceKey, tr *tracer) (*tracestore.Trace, error) {
	pass := tr.begin("capture/exec/"+k.workload, -1)
	b := tr.begin("workloads.build", pass)
	w, err := registry.New(k.workload, k.p)
	tr.end(b)
	if err != nil {
		return nil, err
	}
	e := tr.begin("softsdv.exec", pass)
	sum, err := core.RunWorkload(w, k.pc)
	tr.end(e)
	tr.end(pass)
	if err != nil {
		return nil, err
	}
	tr.add("softsdv.guest_instructions", float64(sum.Instructions))
	tr.add("softsdv.bus_events", float64(sum.BusEvents))

	pass = tr.begin("capture/encode/"+k.workload, -1)
	w, err = registry.New(k.workload, k.p)
	if err != nil {
		return nil, err
	}
	rec := &batchRecorder{rec: tracestore.NewRecorder(), tr: tr}
	sum, err = core.RunWorkload(w, k.pc, rec)
	if err != nil {
		return nil, err
	}
	rec.flush()
	t0 := tr.now()
	t, err := rec.rec.Finish(tracestore.Summary{
		Workload: sum.Workload, Threads: sum.Threads, Instructions: sum.Instructions,
		Loads: sum.Loads, Stores: sum.Stores, BusEvents: sum.BusEvents,
	})
	rec.busy += tr.since(t0)
	tr.batchSpan("tracestore.encode", pass, rec.busy, rec.batches+1)
	tr.endBaseline(pass)
	if err != nil {
		return nil, err
	}
	tr.add("tracestore.encoded_bytes", float64(t.EncodedLen()))
	tr.add("tracestore.refs", float64(sum.BusEvents))
	return t, nil
}

// batchRecorder is the capture snooper (core's busRecorder) with the
// recorder fed in 64-ref batches so the encode cost is timed per batch.
type batchRecorder struct {
	rec     *tracestore.Recorder
	tr      *tracer
	buf     [batch]trace.Ref
	n       int
	busy    time.Duration
	batches int
}

func (r *batchRecorder) OnRef(ref trace.Ref) {
	r.buf[r.n] = ref
	r.n++
	if r.n == batch {
		r.flush()
	}
}

func (r *batchRecorder) OnMsg(m fsb.Message) { r.OnRef(fsb.EncodeMessage(m)) }

func (r *batchRecorder) flush() {
	t0 := r.tr.now()
	for _, ref := range r.buf[:r.n] {
		r.rec.Add(ref)
	}
	r.busy += r.tr.since(t0)
	r.batches++
	r.n = 0
}

// batch is the replay engine's decode granularity (core.replayBatch).
const batch = 64

// noop is the stand-in snooper of the dispatch pass.
type noop struct{ refs uint64 }

func (n *noop) OnRef(trace.Ref)   { n.refs++ }
func (n *noop) OnMsg(fsb.Message) {}

// sweepPasses plans one spec and replays its trace through each layer.
func sweepPasses(k traceKey, s *server.SweepSpec, t *tracestore.Trace, tr *tracer) error {
	engine, err := core.ParseEngine(s.Engine)
	if err != nil {
		return err
	}
	var flat []cache.Config
	var indexOf []int
	for _, g := range s.Grids {
		for ci, c := range g {
			flat = append(flat, cache.Config{Name: c.Name, Size: c.SizeBytes, LineSize: c.LineSize, Assoc: c.Assoc, SectorSize: c.SectorSize})
			indexOf = append(indexOf, ci)
			if c.Repl != "" && c.Repl != "lru" {
				return fmt.Errorf("config %s: only LRU configs are benchmarked", c.Name)
			}
		}
	}
	root := tr.begin("sweep/"+k.workload, -1)
	p := tr.begin("core.plan", root)
	plan, err := core.PlanSweep(flat, engine)
	tr.end(p)
	if err != nil {
		return err
	}
	tr.add("core.plan.analytic_configs", float64(len(plan.Analytic)))
	tr.add("core.plan.emulated_configs", float64(len(plan.Emulated)))
	tr.add("core.plan.deduped_configs", float64(len(flat)-len(plan.Analytic)-len(plan.Emulated)))

	// Decode alone, then decode plus dispatch to as many no-op snoopers
	// as the plan attaches real ones.
	d := tr.begin("trace.decode", root)
	refs, err := replay(t, func([]trace.Ref) {})
	tr.end(d)
	if err != nil {
		return err
	}
	tr.replayedRefs += refs
	tr.add("trace.refs", float64(refs))
	nsnoop := len(plan.Emulated)
	if len(plan.Analytic) > 0 {
		nsnoop++
	}
	bus := fsb.NewBus()
	for i := 0; i < nsnoop; i++ {
		bus.Attach(&noop{})
	}
	dp := tr.begin("fsb.dispatch+decode", root)
	if _, err := replay(t, func(b []trace.Ref) {
		for _, r := range b {
			if m, ok := fsb.DecodeMessage(r); ok {
				bus.Msg(m)
			} else {
				bus.Ref(r)
			}
		}
	}); err != nil {
		return err
	}
	if err := bus.Close(); err != nil {
		return err
	}
	tr.endDispatch(dp, d)
	tr.add("fsb.refs", float64(bus.Events()-bus.Messages()))
	tr.add("fsb.msgs", float64(bus.Messages()))

	results := make([]core.LLCResult, len(flat))
	if len(plan.Analytic) > 0 {
		if err := oraclePass(flat, plan, t, tr, root, results); err != nil {
			return err
		}
	}
	if len(plan.Emulated) > 0 {
		if err := emulatePasses(flat, plan, t, tr, root, results); err != nil {
			return err
		}
	}
	tr.end(root)
	if !tr.on {
		return nil
	}
	// Only the results are kept here; their digests are taken after the
	// traced run's clock stops, so that hashing is not counted as tracing.
	for i := range flat {
		res := results[plan.Entries[i].Canonical]
		res.LLC = flat[i]
		tr.results = append(tr.results, keptResult{k.workload, k.p.Seed, indexOf[i], res})
	}
	return nil
}

// keptResult is one config's result from the traced passes, not yet hashed.
type keptResult struct {
	workload string
	seed     int64
	index    int
	res      core.LLCResult
}

// digests hashes the kept results into the form the driver checks.
func digests(kept []keptResult) ([]configResult, error) {
	out := make([]configResult, len(kept))
	for i, k := range kept {
		b, err := json.Marshal(k.res)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		out[i] = configResult{
			Workload: k.workload, Seed: k.seed, Index: k.index,
			Config: k.res.LLC.Name, MPKI: k.res.MPKI, Digest: hex.EncodeToString(sum[:]),
		}
	}
	return out, nil
}

// replay decodes t in 64-ref batches and hands each batch to fn.
func replay(t *tracestore.Trace, fn func([]trace.Ref)) (uint64, error) {
	p, err := t.Player()
	if err != nil {
		return 0, err
	}
	var buf [batch]trace.Ref
	var n uint64
	for {
		k := p.NextBatch(buf[:])
		if k == 0 {
			break
		}
		fn(buf[:k])
		n += uint64(k)
	}
	return n, p.Err()
}

// deliver hands one batch to a snooper the way fsb.Bus does.
func deliver(s fsb.Snooper, b []trace.Ref) {
	for _, r := range b {
		if m, ok := fsb.DecodeMessage(r); ok {
			s.OnMsg(m)
		} else {
			s.OnRef(r)
		}
	}
}

// oraclePass feeds the analytic leg's engine and collects its configs.
func oraclePass(flat []cache.Config, plan *core.SweepPlan, t *tracestore.Trace, tr *tracer, root int, results []core.LLCResult) error {
	pass := tr.begin("pass/oracle", root)
	eng, err := oracle.New(plan.LineSize)
	if err != nil {
		return err
	}
	if err := eng.EnableSampling(3e9, dragonhead.DefaultSamplePeriod); err != nil {
		return err
	}
	tracked := map[int]*oracle.Tracked{}
	for _, i := range plan.Analytic {
		if tracked[i], err = eng.Track(flat[i]); err != nil {
			return err
		}
	}
	var busy time.Duration
	var batches int
	if _, err := replay(t, func(b []trace.Ref) {
		t0 := tr.now()
		deliver(eng, b)
		busy += tr.since(t0)
		batches++
	}); err != nil {
		return err
	}
	tr.batchSpan("oracle.record", pass, busy, batches)
	c := tr.begin("oracle.collect", pass)
	for _, i := range plan.Analytic {
		tk := tracked[i]
		samples := tk.Samples()
		ds := make([]dragonhead.Sample, len(samples))
		for j, s := range samples {
			ds[j] = dragonhead.Sample(s)
		}
		results[i] = core.LLCResult{LLC: flat[i], Stats: tk.Stats(), Instructions: eng.Instructions(), MPKI: tk.MPKI(), Samples: ds, Ignored: eng.Ignored()}
	}
	tr.end(c)
	tr.endBaseline(pass)
	return nil
}

// emulatePasses feeds one Dragonhead per emulated config, then replays
// the in-window refs into one monolithic cache.Cache per config: the
// bank lookups alone, which Dragonhead's time is reduced by to leave
// its AF. Bank splitting is exact, so the two must agree on every
// access and miss count.
func emulatePasses(flat []cache.Config, plan *core.SweepPlan, t *tracestore.Trace, tr *tracer, root int, results []core.LLCResult) error {
	pass := tr.begin("pass/dragonhead", root)
	emus := make([]*dragonhead.Emulator, len(plan.Emulated))
	for j, i := range plan.Emulated {
		cfg, err := bankedConfig(flat[i])
		if err != nil {
			return err
		}
		if emus[j], err = dragonhead.New(cfg); err != nil {
			return err
		}
	}
	var busy time.Duration
	var batches int
	var delivered uint64
	if _, err := replay(t, func(b []trace.Ref) {
		for _, e := range emus {
			t0 := tr.now()
			deliver(e, b)
			busy += tr.since(t0)
			batches++
		}
		for _, r := range b {
			if !fsb.IsMessage(r) {
				delivered += uint64(len(emus))
			}
		}
	}); err != nil {
		return err
	}
	tr.batchSpan("dragonhead.deliver", pass, busy, batches)
	c := tr.begin("dragonhead.collect", pass)
	var bankAccesses uint64
	for j, i := range plan.Emulated {
		e := emus[j]
		e.Finalize()
		results[i] = core.LLCResult{LLC: flat[i], Stats: e.Stats(), Instructions: e.Instructions(), MPKI: e.MPKI(), Samples: e.Samples(), Ignored: e.Ignored()}
		bankAccesses += results[i].Stats.Accesses
	}
	tr.end(c)
	tr.endBaseline(pass)
	tr.add("dragonhead.refs_delivered", float64(delivered))
	tr.add("dragonhead.bank_accesses", float64(bankAccesses))

	pass = tr.begin("pass/cache", root)
	caches := make([]*cache.Cache, len(plan.Emulated))
	for j, i := range plan.Emulated {
		var err error
		if caches[j], err = cache.New(flat[i]); err != nil {
			return err
		}
	}
	var window bool
	inWin := make([]trace.Ref, 0, batch)
	busy, batches = 0, 0
	if _, err := replay(t, func(b []trace.Ref) {
		inWin = inWin[:0]
		for _, r := range b {
			if m, ok := fsb.DecodeMessage(r); ok {
				switch m.Kind {
				case fsb.MsgStart:
					window = true
				case fsb.MsgStop:
					window = false
				}
			} else if window && !fsb.IsMessage(r) {
				inWin = append(inWin, r)
			}
		}
		for _, c := range caches {
			t0 := tr.now()
			for _, r := range inWin {
				c.Access(r.Addr, r.Size, r.Kind, r.Core)
			}
			busy += tr.since(t0)
			batches++
		}
	}); err != nil {
		return err
	}
	tr.batchSpan("cache.access", pass, busy, batches)
	tr.endBaseline(pass)
	for j, i := range plan.Emulated {
		cs := caches[j].Stats()
		es := results[i].Stats
		if cs.Accesses != es.Accesses || cs.Misses != es.Misses {
			return fmt.Errorf("config %s: cache.Cache saw %d accesses / %d misses, Dragonhead's banks %d / %d",
				flat[i].Name, cs.Accesses, cs.Misses, es.Accesses, es.Misses)
		}
		tr.add("cache.accesses", float64(cs.Accesses))
		tr.add("cache.misses", float64(cs.Misses))
	}
	return nil
}

// bankedConfig fits the board's CC banking to one LLC the way the
// sweep executor does: banks halve until each holds at least one set.
func bankedConfig(llc cache.Config) (dragonhead.Config, error) {
	cfg := dragonhead.DefaultConfig(llc)
	if llc.LineSize == 0 || llc.Assoc <= 0 {
		return cfg, fmt.Errorf("config %s: no line size or associativity", llc.Name)
	}
	sets := llc.Size / llc.LineSize / uint64(llc.Assoc)
	if sets == 0 {
		return cfg, fmt.Errorf("config %s: no sets", llc.Name)
	}
	for cfg.Banks > 1 && uint64(cfg.Banks) > sets {
		cfg.Banks /= 2
	}
	return cfg, nil
}

type goMetrics struct{ allocBytes, gcCPU float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtime.GC()
	metrics.Read(s)
	var g goMetrics
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	return g
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
