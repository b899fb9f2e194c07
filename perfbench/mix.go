package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The cosimd-mix traffic. Each episode is a fresh cosimd driven by a
// closed loop of two clients, each submitting its next request only
// after the previous one's terminal SSE frame. A client's 21 requests
// come in rounds of seven, one round per mix workload:
//
//	capture      new size grid over the round's new trace (both clients
//	             ask for the same trace: one captures, the other waits
//	             on the tracestore's single flight or hits it)
//	repeat       a spec this client already had answered (result cache)
//	replay-line  new line-size grid over that trace (emulated configs)
//	repeat
//	replay-size  new size grid over a trace captured this episode
//	repeat
//	repeat
//
// Every "new" spec is distinct across both clients, so repeats are the
// only result-cache hits and their count does not depend on timing:
// 4 of every 7 requests, 57%. The share follows the one measured
// traffic figure of this repository, a 2-client cosimload run with 23
// of 48 requests (48%) served from the cache, rounded up to the nearest
// majority in rounds of seven, so that latency_p50_ms falls on a cache
// hit and latency_tail_ms on a capture or replay.
var (
	mixWorkloads = []string{"SVM-RFE", "RSEARCH", "MDS"}
	cosimdArgs   = []string{"-addr", "127.0.0.1:0"}
)

const (
	mixSeedPool = 16 // dataset seeds per mix workload (all have goldens)
	mixRounds   = 3  // rounds of seven requests per client per episode
	mixClients  = 2
	// setupPerEpisode is how many extra cosimd start-ups, each one a
	// setup_s sample, precede each episode besides the episode's own.
	// A start-up takes milliseconds, so its median needs many samples.
	setupPerEpisode = 4
)

// sweepSpec is the wire form of a cosimd sweep request.
type sweepSpec struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Scale    float64        `json:"scale,omitempty"`
	Platform platformSpec   `json:"platform"`
	Grids    [][]configSpec `json:"grids"`
	Engine   string         `json:"engine,omitempty"`
	Sampling string         `json:"sampling,omitempty"`
}

type platformSpec struct {
	Threads int    `json:"threads"`
	Quantum uint64 `json:"quantum,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

type configSpec struct {
	Name      string `json:"name,omitempty"`
	SizeBytes uint64 `json:"size_bytes"`
	LineSize  uint64 `json:"line_size"`
	Assoc     int    `json:"assoc"`
	Repl      string `json:"repl,omitempty"`
}

// name is the config's name in results: its own, or the server's default.
func (c configSpec) name() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("llc-%dB-%dB-%dw", c.SizeBytes, c.LineSize, c.Assoc)
}

// scaledBytes converts a paper-sized LLC to the benchmark scale the
// way the exhibits do: the largest power of two not above it, at
// least 4 KiB.
func scaledBytes(paperMB int) uint64 {
	target := float64(paperMB) * (1 << 20) * scale
	size := uint64(1) << 12
	for float64(size*2) <= target {
		size *= 2
	}
	return size
}

func allSizes() []int    { return []int{4, 8, 16, 32, 64, 128, 256} }
func allLines() []uint64 { return []uint64{64, 128, 256, 512, 1024, 2048, 4096} }

// sizeGrid is a Figure 4 style grid: 16-way, 64 B lines, the given
// paper-sized capacities.
func sizeGrid(mbs []int) []configSpec {
	out := make([]configSpec, len(mbs))
	for i, mb := range mbs {
		out[i] = configSpec{SizeBytes: scaledBytes(mb), LineSize: 64, Assoc: 16}
	}
	return out
}

// lineGrid is a Figure 7 style grid: a 32 MB paper-sized LLC at the
// given line sizes, associativity halved while it exceeds the lines.
func lineGrid(lines []uint64) []configSpec {
	size := scaledBytes(32)
	out := make([]configSpec, len(lines))
	for i, ls := range lines {
		assoc := 16
		for uint64(assoc) > size/ls {
			assoc /= 2
		}
		out[i] = configSpec{SizeBytes: size, LineSize: ls, Assoc: assoc}
	}
	return out
}

func mixSpec(workload string, seed int64, grids ...[]configSpec) sweepSpec {
	return sweepSpec{Workload: workload, Seed: seed, Scale: scale, Platform: platformSpec{Threads: 8, Seed: seed}, Grids: grids}
}

// request is one planned submission.
type request struct {
	Kind string
	Spec sweepSpec
}

type mixTrace struct {
	workload string
	seed     int64
}

// mixKeys picks the episode's traces from the seed: one per round and
// workload, in a seed-chosen rotation, dataset seeds drawn from the
// golden pool.
func mixKeys(rng *rand.Rand) []mixTrace {
	off := rng.Intn(len(mixWorkloads))
	perm := map[string][]int{}
	for _, w := range mixWorkloads {
		perm[w] = rng.Perm(mixSeedPool)
	}
	keys := make([]mixTrace, mixRounds)
	for r := range keys {
		w := mixWorkloads[(off+r)%len(mixWorkloads)]
		keys[r] = mixTrace{w, int64(perm[w][r/len(mixWorkloads)] + 1)}
	}
	return keys
}

func mixKeyNames(seed int64) []string {
	var out []string
	for _, k := range mixKeys(rand.New(rand.NewSource(seed))) {
		out = append(out, mixKey(k.workload, k.seed))
	}
	return out
}

// mixEpisode builds both clients' request lists from the seed.
func mixEpisode(seed int64) [mixClients][]request {
	rng := rand.New(rand.NewSource(seed))
	keys := mixKeys(rng)
	used := map[string]bool{}
	pick := func(line bool) []configSpec {
		n := len(allSizes())
		idx := rng.Perm(n)[:3]
		sort.Ints(idx)
		if line {
			var ls []uint64
			for _, i := range idx {
				ls = append(ls, allLines()[i])
			}
			return lineGrid(ls)
		}
		var mbs []int
		for _, i := range idx {
			mbs = append(mbs, allSizes()[i])
		}
		return sizeGrid(mbs)
	}
	var lists [mixClients][]request
	var own [mixClients][]sweepSpec
	for r := 0; r < mixRounds; r++ {
		for c := 0; c < mixClients; c++ {
			fresh := func(kind string, k mixTrace, line bool) {
				for {
					spec := mixSpec(k.workload, k.seed, pick(line))
					b, _ := json.Marshal(spec)
					if used[string(b)] {
						continue
					}
					used[string(b)] = true
					lists[c] = append(lists[c], request{kind, spec})
					own[c] = append(own[c], spec)
					return
				}
			}
			repeat := func() {
				lists[c] = append(lists[c], request{"repeat", own[c][rng.Intn(len(own[c]))]})
			}
			fresh("capture", keys[r], false)
			repeat()
			fresh("replay-line", keys[r], true)
			repeat()
			fresh("replay-size", keys[rng.Intn(r+1)], false)
			repeat()
			repeat()
		}
	}
	return lists
}

// daemon is one cosimd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration
	done   chan error
	stderr *sniffer
}

// sniffer collects cosimd's stderr and reports the address it serves on.
type sniffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (s *sniffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	if !s.sent {
		if _, rest, ok := strings.Cut(s.buf.String(), "serving http://"); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				s.sent = true
				s.addr <- addr
			}
		}
	}
	return len(p), nil
}

func (s *sniffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tail(s.buf.Bytes(), 400)
}

// startDaemon spawns cosimd and returns once /v1/healthz answers 200;
// setup is spawn to that answer.
func startDaemon(ctx context.Context, bin string, hc *http.Client) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, cosimdArgs...), done: make(chan error, 1), stderr: &sniffer{addr: make(chan string, 1)}}
	d.cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cosimd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, fmt.Errorf("cosimd: %w: %s", err, d.stderr)
	}
	wait, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	select {
	case addr := <-d.stderr.addr:
		d.base = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return fail(fmt.Errorf("exited before serving: %v", err))
	case <-wait.Done():
		return fail(errors.New("no listen address"))
	}
	for {
		req, err := http.NewRequestWithContext(wait, http.MethodGet, d.base+"/v1/healthz", nil)
		if err != nil {
			return fail(err)
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				return d, nil
			}
		}
		if wait.Err() != nil {
			return fail(errors.New("healthz never answered 200"))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and reports cosimd's CPU
// time and peak RSS. A non-zero exit is an error.
func (d *daemon) stop() (cpu time.Duration, rssMiB float64, err error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err = <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		err = errors.New("cosimd did not drain within 20s")
	}
	if ps := d.cmd.ProcessState; ps != nil {
		cpu, rssMiB = ps.UserTime()+ps.SystemTime(), peakRSSMiB(ps.SysUsage())
	}
	if err != nil {
		err = fmt.Errorf("cosimd exit: %w: %s", err, d.stderr)
	}
	return cpu, rssMiB, err
}

// timeSetup starts a cosimd, takes its setup time and kills it. It is
// killed, not stopped with SIGTERM, because cosimd installs its SIGTERM
// handler only after it starts serving, so a SIGTERM right after the
// first healthz 200 can end it before the handler is there. The drain
// is checked on each episode's own daemon instead.
func timeSetup(ctx context.Context, bin string) (time.Duration, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	d, err := startDaemon(ctx, bin, hc)
	if err != nil {
		return 0, err
	}
	d.kill()
	return d.setup, nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
}

// newClient returns the one HTTP client of an episode: at most two
// connections, no proxy, no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients, DisableCompression: true,
	}}
}

// outcome is one request's client-side timestamps.
type outcome struct {
	Req     request
	ID      string
	T0      time.Time // first submit attempt
	Sub     time.Time // 201 received
	Active  time.Time // first SSE frame past "queued"
	End     time.Time // terminal SSE frame
	Retries int
	Err     error
}

// doRequest submits one spec, retrying 429s as Retry-After asks, then
// follows its SSE stream to the terminal frame.
func doRequest(ctx context.Context, hc *http.Client, base, tenant string, r request) outcome {
	o := outcome{Req: r, T0: time.Now()}
	body, err := json.Marshal(r.Spec)
	if err != nil {
		o.Err = err
		return o
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
		if err != nil {
			o.Err = err
			return o
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := hc.Do(req)
		if err != nil {
			o.Err = fmt.Errorf("submit: %w", err)
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.Retries++
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				o.Err = fmt.Errorf("refused with 429 %d times and never admitted", o.Retries)
				return o
			}
		}
		var st struct {
			ID string `json:"id"`
		}
		err = decodeStatus(resp, http.StatusCreated, &st)
		if err != nil {
			o.Err = fmt.Errorf("submit: %w", err)
			return o
		}
		o.Sub, o.ID = time.Now(), st.ID
		break
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+o.ID+"/events", nil)
	if err != nil {
		o.Err = err
		return o
	}
	resp, err := hc.Do(req)
	if err != nil {
		o.Err = fmt.Errorf("events: %w", err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.Err = fmt.Errorf("events: HTTP %d", resp.StatusCode)
		return o
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			o.Err = fmt.Errorf("event stream of %s ended without a terminal frame: %w", o.ID, err)
			return o
		}
		line = strings.TrimRight(line, "\r\n")
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if line != "" || event == "" {
			continue
		}
		now := time.Now()
		if event != "queued" && o.Active.IsZero() {
			o.Active = now
		}
		if event == "done" || event == "failed" {
			o.End = now
			if event == "failed" {
				o.Err = fmt.Errorf("job %s failed", o.ID)
			}
			// The server ends the stream after the terminal frame;
			// reading to EOF lets the connection be reused.
			io.Copy(io.Discard, rd)
			return o
		}
		event = ""
	}
}

func decodeStatus(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// episode is one cosimd lifetime.
type episode struct {
	Setup    time.Duration
	Wall     time.Duration // first submit to last terminal frame
	Done     int
	Outcomes []outcome
	CPU      time.Duration
	RSSMiB   float64
	Statusz  statusz
}

// statusz is the part of GET /v1/statusz the traced run reads.
type statusz struct {
	Jobs struct {
		Done   uint64 `json:"done"`
		Cached uint64 `json:"cached"`
	} `json:"jobs"`
	TraceStore struct {
		Misses uint64 `json:"misses"`
		Waits  uint64 `json:"singleflight_waits"`
	} `json:"trace_store"`
}

// runEpisode starts a cosimd, drives the two clients' lists through
// it, then (outside the timed window) fetches every result and checks
// it with check. Each request is one operation in t, as is the daemon.
func runEpisode(ctx context.Context, bin string, lists [mixClients][]request, check func(sweepSpec, []byte) error, t *tally) (episode, bool) {
	var ep episode
	hc := newClient()
	defer hc.CloseIdleConnections()
	d, err := startDaemon(ctx, bin, hc)
	if !t.record(err) {
		return ep, false
	}
	ep.Setup = d.setup
	var outs [mixClients][]outcome
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range lists[c] {
				if ctx.Err() != nil {
					return
				}
				outs[c] = append(outs[c], doRequest(ctx, hc, d.base, fmt.Sprintf("client-%d", c), r))
			}
		}(c)
	}
	wg.Wait()
	var first, last time.Time
	for c := range outs {
		for _, o := range outs[c] {
			if first.IsZero() || o.T0.Before(first) {
				first = o.T0
			}
			if o.End.After(last) {
				last = o.End
			}
			ep.Outcomes = append(ep.Outcomes, o)
		}
	}
	ep.Wall = last.Sub(first)
	for i := range ep.Outcomes {
		o := &ep.Outcomes[i]
		if o.Err == nil {
			o.Err = fetchAndCheck(ctx, hc, d.base, o, check)
		}
		if t.record(o.Err) {
			ep.Done++
		}
	}
	resp, err := hc.Get(d.base + "/v1/statusz")
	if err == nil {
		err = decodeStatus(resp, http.StatusOK, &ep.Statusz)
	}
	t.record(err)
	cpu, rss, err := d.stop()
	ep.CPU, ep.RSSMiB = cpu, rss
	t.record(err)
	return ep, true
}

// fetchAndCheck reads a finished job's result and checks it.
func fetchAndCheck(ctx context.Context, hc *http.Client, base string, o *outcome, check func(sweepSpec, []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+o.ID, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := decodeStatus(resp, http.StatusOK, &st); err != nil {
		return fmt.Errorf("status of %s: %w", o.ID, err)
	}
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s", o.ID, st.State)
	}
	if err := check(o.Req.Spec, st.Result); err != nil {
		return fmt.Errorf("job %s (%s): %w", o.ID, o.Req.Kind, err)
	}
	return nil
}

// runMix measures cosimd-mix end to end: episodes back to back until
// the next one would overrun --seconds, each on a fresh cosimd and each
// preceded by a few cosimd start-ups for setup_s.
func runMix(ctx context.Context, cfg config, t *tally) (map[string]float64, error) {
	bin := filepath.Join(cfg.Bin, "cosimd")
	lists := mixEpisode(cfg.Seed)
	var setup, wall, cpu, rss, rate, lat, submit []float64
	budget := time.Duration(cfg.Seconds) * time.Second
	t0 := time.Now()
	for n := 1; ctx.Err() == nil; n++ {
		for i := 0; i < setupPerEpisode; i++ {
			d, err := timeSetup(ctx, bin)
			if t.record(err) {
				setup = append(setup, d.Seconds())
			}
		}
		ep, ok := runEpisode(ctx, bin, lists, cfg.Goldens.checkMixResult, t)
		if !ok {
			break
		}
		fmt.Printf("# episode %d: %d of %d requests served from the result cache\n", n, ep.Statusz.Jobs.Cached, ep.Statusz.Jobs.Done)
		setup = append(setup, ep.Setup.Seconds())
		wall = append(wall, ep.Wall.Seconds())
		cpu = append(cpu, ep.CPU.Seconds())
		rss = append(rss, ep.RSSMiB)
		rate = append(rate, float64(ep.Done)/ep.Wall.Seconds())
		for _, o := range ep.Outcomes {
			if o.Err == nil {
				lat = append(lat, ms(o.End.Sub(o.T0)))
				submit = append(submit, ms(o.Sub.Sub(o.T0)))
			}
		}
		elapsed := time.Since(t0)
		if elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	latency := summarize(lat)
	printTimings(map[string]timing{
		"wall_s": summarize(wall), "setup_s": summarize(setup), "cpu_s": summarize(cpu),
		"latency_ms": latency, "submit_ms": summarize(submit),
	})
	return map[string]float64{
		"wall_s":          median(wall),
		"setup_s":         median(setup),
		"cpu_s":           median(cpu),
		"peak_rss_mb":     median(rss),
		"latency_p50_ms":  latency.Median,
		"latency_tail_ms": latency.Tail,
		"submit_p50_ms":   median(submit),
		"throughput_rps":  median(rate),
	}, nil
}
