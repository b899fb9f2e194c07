package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced run. Batch spans aggregate
// the 64-ref batches of one layer in one pass: Start and End bound the
// pass, SelfNS is the sum of the batch timings.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Run     string `json:"run"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Batches int    `json:"batches,omitempty"`
	// Baseline marks the part of a pass that repeats work another pass
	// already measured (decoding again, executing again); it is neither
	// a layer's time nor unattributed.
	Baseline bool `json:"baseline,omitempty"`

	childNS int64
}

// tracer records spans and per-layer self time. A tracer that is off
// reads no clock inside a pass, which is the untraced run.
type tracer struct {
	on     bool
	run    string
	start  time.Time
	spans  []span
	self   map[string]time.Duration
	counts map[string]float64

	results      []keptResult
	replayedRefs uint64
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:     on,
		run:    fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()),
		start:  time.Now(),
		self:   map[string]time.Duration{},
		counts: map[string]float64{},
	}
}

func (t *tracer) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) since(t0 time.Time) time.Duration {
	if !t.on {
		return 0
	}
	return time.Since(t0)
}

func (t *tracer) add(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: t.run, Start: time.Since(t.start).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes a span; a span named after a layer adds its duration to
// that layer's self time.
func (t *tracer) end(id int) time.Duration {
	if !t.on || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = time.Since(t.start).Nanoseconds()
	d := time.Duration(s.End - s.Start)
	if isLayer(s.Name) {
		s.SelfNS = int64(d) - s.childNS
		t.self[s.Name] += time.Duration(s.SelfNS)
		t.credit(s.Parent, int64(d))
	}
	return d
}

// batchSpan records the summed batch timings of one layer in a pass.
func (t *tracer) batchSpan(name string, parent int, busy time.Duration, batches int) {
	if !t.on {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	start := now
	if parent >= 0 {
		start = t.spans[parent].Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: t.run, Start: start, End: now, SelfNS: int64(busy), Batches: batches})
	t.self[name] += busy
	t.credit(parent, int64(busy))
}

// endBaseline closes a pass whose time outside its layer spans repeats
// work measured elsewhere.
func (t *tracer) endBaseline(id int) {
	if !t.on || id < 0 {
		return
	}
	d := t.end(id)
	s := &t.spans[id]
	base := int64(d) - s.childNS
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: id, Name: "baseline", Run: t.run, Start: s.Start, End: s.End, SelfNS: base, Baseline: true})
	t.self["baseline"] += time.Duration(base)
	t.credit(s.Parent, int64(d))
}

// endDispatch closes the dispatch pass: its time minus the decode-only
// pass is fsb dispatch, the rest repeats the decode.
func (t *tracer) endDispatch(id, decode int) {
	if !t.on || id < 0 {
		return
	}
	d := t.end(id)
	dec := t.spans[decode].End - t.spans[decode].Start
	s := &t.spans[id]
	disp := int64(d) - dec
	t.spans = append(t.spans,
		span{ID: len(t.spans), Parent: id, Name: "fsb.dispatch", Run: t.run, Start: s.Start, End: s.End, SelfNS: disp},
		span{ID: len(t.spans) + 1, Parent: id, Name: "baseline", Run: t.run, Start: s.Start, End: s.End, SelfNS: dec, Baseline: true})
	t.self["fsb.dispatch"] += time.Duration(disp)
	t.self["baseline"] += time.Duration(dec)
	t.credit(s.Parent, int64(d))
}

func (t *tracer) credit(parent int, ns int64) {
	if parent >= 0 {
		t.spans[parent].childNS += ns
	}
}

// isLayer reports whether a span name is a layer (module.operation)
// rather than a pass.
func isLayer(name string) bool {
	switch name {
	case "workloads.build", "softsdv.exec", "core.plan", "trace.decode", "oracle.collect", "dragonhead.collect":
		return true
	}
	return false
}

// attributed is the time the layers plus the repeated baseline account for.
func (t *tracer) attributed() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

func (t *tracer) metrics() map[string]float64 {
	s := func(name string) float64 { return t.self[name].Seconds() }
	c := t.counts
	minstr := c["softsdv.guest_instructions"] / 1e6
	return map[string]float64{
		"workloads.build_s":          s("workloads.build"),
		"softsdv.exec_s":             s("softsdv.exec"),
		"softsdv.minstr_per_s":       ratio(minstr, s("softsdv.exec")),
		"softsdv.guest_minstr":       minstr,
		"softsdv.bus_events":         c["softsdv.bus_events"],
		"tracestore.encode_s":        s("tracestore.encode"),
		"tracestore.bytes_per_ref":   ratio(c["tracestore.encoded_bytes"], c["tracestore.refs"]),
		"trace.decode_s":             s("trace.decode"),
		"trace.decode_mrefs_per_s":   ratio(c["trace.refs"]/1e6, s("trace.decode")),
		"fsb.dispatch_s":             s("fsb.dispatch"),
		"fsb.refs":                   c["fsb.refs"],
		"fsb.msgs":                   c["fsb.msgs"],
		"core.plan_s":                s("core.plan"),
		"core.plan.analytic_configs": c["core.plan.analytic_configs"],
		"core.plan.emulated_configs": c["core.plan.emulated_configs"],
		"core.plan.deduped_configs":  c["core.plan.deduped_configs"],
		"dragonhead.af_s":            s("dragonhead.deliver") - s("cache.access"),
		"dragonhead.af_pass_ratio":   ratio(c["dragonhead.bank_accesses"], c["dragonhead.refs_delivered"]),
		"dragonhead.collect_s":       s("dragonhead.collect"),
		"cache.access_s":             s("cache.access"),
		"cache.accesses":             c["cache.accesses"],
		"cache.miss_ratio":           ratio(c["cache.misses"], c["cache.accesses"]),
		"oracle.record_s":            s("oracle.record"),
		"oracle.collect_s":           s("oracle.collect"),
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
