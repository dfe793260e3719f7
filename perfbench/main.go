// Command perfbench is the end-to-end benchmark of yprov-server: an
// open-loop load generator that drives a real server over loopback,
// checks every answer against its own model of the generated data, and
// reports end-to-end metrics (untraced run) or a per-layer breakdown
// (traced run). See README.md for the workloads and metrics.
//
// Usage (from the repository root, through run.sh, which builds the
// server and this program first):
//
//	bash perfbench/run.sh --workload ingest|lineage-hot|mixed --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "host" {
		if err := hostMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench host:", err)
			os.Exit(1)
		}
		return
	}
	// The generator shares the machine with the server: collect its
	// garbage rarely, so its own pauses do not read as server latency.
	debug.SetGCPercent(400)
	code := benchMain(os.Args[1:])
	killAll()
	os.Exit(code)
}

func benchMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: ingest, lineage-hot or mixed")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "length of the timed fixed-rate phase")
	trace := fl.Int("trace", 0, "1 = traced run with the per-layer breakdown")
	server := fl.String("server", ".bench_build/bin/yprov-server", "yprov-server binary built from the tree under test")
	work := fl.String("work", ".bench_build/work", "scratch directory for data directories and logs")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "--seconds must be at least 1")
		return 2
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(1)
	}()

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	root, _ := os.Getwd()
	dir := filepath.Join(*work, fmt.Sprintf("%s-s%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: *seed, seconds: *seconds, dir: dir, serverBin: *server, selfBin: self, root: root}
	out, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

var t0 = time.Now()

// logf reports progress on standard error, stamped with the time since
// the benchmark started.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] "+format+"\n", append([]interface{}{time.Since(t0).Seconds()}, args...)...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	w         workload
	seed      int64
	seconds   int
	dir       string
	serverBin string
	selfBin   string
	root      string
}

// setupReps is how many times each measurement starts the server on
// the preloaded directory; setup_s is the median.
const setupReps = 7

// probeSeconds is the length of one max-rate probe.
const probeSeconds = 1.0

// run preloads the corpus once, then measures the untraced server and,
// for a traced run, the traced host on a copy of the same directory.
func (b *bench) run(traced bool) (*result, error) {
	tmpl := filepath.Join(b.dir, "preloaded")
	src := b.w.new(b.seed)
	liveBytes, err := b.preload(tmpl, src.corpus())
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	logf("preloaded %d documents", len(liveBytes))
	ctx := newRunContext(b.w, b.seed, b.seconds, traced, b.root, b.dir)

	plain, err := b.measure(src, liveBytes, tmpl, false)
	if err != nil {
		return nil, err
	}
	ctx.Samples = plain.sampleCounts()
	ctx.HostSteal = plain.steal
	e2e := plain.endToEnd()
	res := &result{Correct: plain.correct(), Attempted: plain.attempted, Failed: plain.failed, Metrics: e2e}
	var tr *measurement
	if traced {
		// A fresh source: the traced run offers byte-identical ops.
		src2 := b.w.new(b.seed)
		tr, err = b.measure(src2, liveBytes, tmpl, true)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && tr.correct()
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Metrics = tr.layers
	}
	printReport(os.Stdout, ctx, plain, tr)
	if err := b.saveResult(ctx, plain, tr); err != nil {
		fmt.Fprintln(os.Stderr, "saving result:", err)
	}
	return res, nil
}

// preload writes the corpus into a fresh data directory with single
// PUTs over two connections, as runs upload their provenance, so the
// directory holds snapshots and a journal tail like a live store does.
// The server is then stopped cleanly.
func (b *bench) preload(dir string, corpus []*docSpec) (map[string]int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, _, err := startProc(b.serverBin, serverFlags(addr, dir), addr, filepath.Join(b.dir, "preload.log"))
	if err != nil {
		return nil, err
	}
	defer p.stop()
	ops := make([]op, len(corpus))
	live := map[string]int{}
	for i, d := range corpus {
		ops[i] = putOp(d)
		live[d.id] = len(ops[i].body)
	}
	cs := newClients(p.base, 2)
	defer closeClients(cs)
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < len(ops); i += len(cs) {
				status, body, err := c.do(ops[i].method, ops[i].path, ops[i].body, "")
				if err == nil {
					err = ops[i].check(status, body)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return live, nil
}

// measurement is everything one server run produced.
type measurement struct {
	setups    []float64 // s
	fixed     *phase
	warm      []*phase
	probes    []*probe
	maxRate   float64
	cpu       time.Duration
	refMs     []float64 // reference-task CPU times during the fixed phase
	rssMB     []float64 // server VmRSS samples during the fixed phase
	steal     float64   // host steal share during the fixed phase
	hwm       int64
	diskBytes int64
	liveBytes int64
	attempted int
	failed    int
	wrong     int
	lost      []string // acknowledged writes missing after the crash
	layers    map[string]metric
	layerRows []layerRow
}

func (m *measurement) correct() bool { return m.wrong == 0 && len(m.lost) == 0 }

// measure runs one server through setup, warm-up, the fixed-rate
// phase, the max-rate search and, for writing workloads, the crash
// check.
func (b *bench) measure(src source, live map[string]int, tmpl string, traced bool) (*measurement, error) {
	tag := "plain"
	if traced {
		tag = "traced"
	}
	m := &measurement{}
	// Space of the preloaded corpus, as the server left it after a clean
	// stop. Measured there because a live directory's size moves in
	// steps whose timing varies run to run: snapshots land in the
	// background, compaction follows, the active segment rotates.
	var err error
	if m.diskBytes, err = dirBytes(tmpl); err != nil {
		return nil, err
	}
	for _, n := range live {
		m.liveBytes += int64(n)
	}
	data := filepath.Join(b.dir, tag, "data")
	if err := copyDir(tmpl, data); err != nil {
		return nil, err
	}
	spans := filepath.Join(b.dir, tag, "spans.json")
	logPath := filepath.Join(b.dir, tag, "server.log")
	start := func(bin string, traceArgs bool) (*proc, time.Duration, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args := serverFlags(addr, data)
		if traceArgs {
			args = append([]string{"host", "-spans", spans}, args...)
		}
		return startProc(bin, args, addr, logPath)
	}
	bin := b.serverBin
	if traced {
		bin = b.selfBin
	}
	var p *proc
	for i := 0; i < setupReps; i++ {
		q, d, err := start(bin, traced)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
		if i < setupReps-1 {
			q.kill()
		} else {
			p = q
		}
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	logf("%s: setup %v", tag, m.setups)
	cs := newClients(p.base, 2)
	defer closeClients(cs)
	for _, c := range cs {
		c.wantSpans = traced
	}

	// Untimed warm-up: every hot key once, then a second at the
	// nominal rate.
	liveNow := copyLive(live)
	if lh, ok := src.(*lineageHot); ok {
		m.warm = append(m.warm, b.runPhase(cs, "w0", lh.warmKeys(), 2*b.w.rate, liveNow))
	}
	m.warm = append(m.warm, b.runPhase(cs, "w1", src.next(int(b.w.rate)), b.w.rate, liveNow))

	// The window runs from a settled server to a settled server, so it
	// holds all the work the phase's requests caused, background
	// snapshots and compaction included, and none from the warm-up.
	cpu0, err := settle(p.pid())
	if err != nil {
		return nil, err
	}
	if traced {
		if err := postMark(p.base, "start"); err != nil {
			return nil, err
		}
	}
	steal0, total0 := cpuTicks()
	smp := startSampler(p.pid())
	m.fixed = b.runPhase(cs, "f", src.next(int(b.w.rate*float64(b.seconds))), b.w.rate, liveNow)
	if err := smp.finish(); err != nil {
		return nil, err
	}
	m.refMs, m.rssMB = smp.refMs, smp.rssMB
	t1 := time.Now()
	cpu1, err := settle(p.pid())
	if err != nil {
		return nil, err
	}
	if traced {
		if err := postMark(p.base, "end"); err != nil {
			return nil, err
		}
	}
	m.cpu = cpu1 - cpu0
	steal1, total1 := cpuTicks()
	m.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	if m.hwm, err = procMem(p.pid(), "VmHWM"); err != nil {
		return nil, err
	}

	logf("%s: fixed phase done, server settled %.1fs after it", tag, time.Since(t1).Seconds())
	m.maxRate = b.searchMaxRate(cs, src, m, liveNow)
	logf("%s: max-rate search done", tag)

	var synced map[string]int64
	if traced {
		if synced, err = postDump(p.base); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	if b.w.durable {
		p.kill()
		p = nil
		if traced {
			if err := truncateToSynced(synced); err != nil {
				return nil, err
			}
		}
		q, _, err := start(b.serverBin, false)
		if err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		p = q
		logf("%s: restarted after kill -9", tag)
		lost, err := verifyDurable(p.base, m.allPhases(), len(live))
		if err != nil {
			return nil, err
		}
		m.lost = lost
		logf("%s: crash check done", tag)
	}
	for _, ph := range m.allPhases() {
		a, f, wr := ph.counts()
		m.attempted += a
		m.failed += f
		m.wrong += wr
	}
	if traced {
		d, err := readDump(spans)
		if err != nil {
			return nil, err
		}
		m.layers, m.layerRows = computeLayers(m, d, src.sampleBodies())
	}
	return m, nil
}

func copyLive(m map[string]int) map[string]int {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// runPhase runs ops open loop at rate and folds acknowledged writes
// into the live-document sizes.
func (b *bench) runPhase(cs []*client, name string, ops []op, rate float64, live map[string]int) *phase {
	p := &phase{name: name, ops: ops, rate: rate}
	p.run(cs)
	for i := range p.ops {
		if w := p.ops[i].write; w != nil && w.acked {
			live[w.id] = w.size
		}
	}
	return p
}

func (m *measurement) allPhases() []*phase {
	ps := append([]*phase(nil), m.warm...)
	if m.fixed != nil {
		ps = append(ps, m.fixed)
	}
	for _, pr := range m.probes {
		ps = append(ps, pr.phase)
	}
	return ps
}

// probe is one step of the max-rate search.
type probe struct {
	phase    *phase
	offered  float64
	achieved float64
	pass     bool
	why      string
}

// searchMaxRate finds the highest offered rate at which every op class
// meets its p99 limit and the generator's backlog does not grow: it
// doubles the rate from the nominal one (at most four times) until a
// probe fails, then bisects (geometrically) three times. It reports the
// achieved rate of the highest passing probe.
func (b *bench) searchMaxRate(cs []*client, src source, m *measurement, live map[string]int) float64 {
	try := func(rate float64) (bool, float64) {
		n := int(rate * probeSeconds)
		ph := b.runPhase(cs, "p"+strconv.Itoa(len(m.probes)), src.next(n), rate, live)
		pr := &probe{phase: ph, offered: rate}
		pr.achieved = float64(n) / ph.end.Sub(ph.start).Seconds()
		pr.pass, pr.why = judge(ph)
		m.probes = append(m.probes, pr)
		return pr.pass, pr.achieved
	}
	var lo, hi, best float64
	rate := b.w.rate
	for step := 0; step < 5; step++ {
		pass, achieved := try(rate)
		if !pass {
			hi = rate
			break
		}
		lo, best = rate, achieved
		rate *= 2
	}
	if hi == 0 {
		return best
	}
	if lo == 0 {
		lo = hi / 8
	}
	for i := 0; i < 3; i++ {
		mid := math.Sqrt(lo * hi)
		if pass, achieved := try(mid); pass {
			lo, best = mid, achieved
		} else {
			hi = mid
		}
	}
	return best
}

// probeWindows is the number of equal windows a probe is judged in.
const probeWindows = 3

// judge decides whether a probe met every limit: no failed op, a
// backlog that does not grow, and, for each op class with a limit, its
// p99 within the limit in a majority of the probe's windows. The
// majority keeps one host stall from deciding the search; a rate the
// server cannot sustain fails in every window, or grows the backlog.
func judge(ph *phase) (bool, string) {
	for c, s := range ph.stats() {
		if s.failed > 0 {
			return false, fmt.Sprintf("%d %s ops failed", s.failed, classNames[c])
		}
	}
	n := len(ph.samples)
	for c := range p99Limit {
		lim := ms(p99Limit[c])
		if lim == 0 {
			continue
		}
		over, worst := 0, 0.0
		for w := 0; w < probeWindows; w++ {
			var lat []float64
			for _, s := range ph.samples[w*n/probeWindows : (w+1)*n/probeWindows] {
				if s.class == c {
					lat = append(lat, ms(s.latency()))
				}
			}
			sort.Float64s(lat)
			if p := quantile(lat, 0.99); p > lim {
				over++
				worst = max(worst, p)
			}
		}
		if over > probeWindows/2 {
			return false, fmt.Sprintf("%s p99 over %v in %d of %d windows (worst %.1fms)", classNames[c], p99Limit[c], over, probeWindows, worst)
		}
	}
	// Backlog: ops due near the end must not be sent later than ops
	// due near the start (beyond a 5ms allowance).
	k := max(n/5, 1)
	var first, last float64
	for i := 0; i < k; i++ {
		first += ms(ph.samples[i].sendLag())
		last += ms(ph.samples[n-1-i].sendLag())
	}
	if grow := (last - first) / float64(k); grow > 5 {
		return false, fmt.Sprintf("backlog grew: send lag +%.1fms", grow)
	}
	return true, ""
}

// settle waits until the server has finished the work earlier
// requests left behind (a background snapshot, a GC cycle): its CPU
// time grows by at most one clock tick in each of two polls in a row,
// or 10 s pass. It returns the server's CPU time then.
func settle(pid int) (time.Duration, error) {
	const poll = 100 * time.Millisecond
	prev, err := procCPU(pid)
	if err != nil {
		return 0, err
	}
	for quiet, end := 0, time.Now().Add(10*time.Second); quiet < 2 && time.Now().Before(end); {
		time.Sleep(poll)
		cur, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		if cur-prev <= 10*time.Millisecond {
			quiet++
		} else {
			quiet = 0
		}
		prev = cur
	}
	return prev, nil
}

// cpuPerOp is the server's CPU per op of the fixed phase, in ms.
func (m *measurement) cpuPerOp() float64 { return ms(m.cpu) / float64(len(m.fixed.samples)) }

// endToEnd computes the gated end-to-end metrics: the ones a shared
// host's drift moves least (see README.md).
func (m *measurement) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":                 {median(m.setups), "s"},
		"server_cpu_ref_per_op":   {m.cpuPerOp() / median(m.refMs), "ref"},
		"rss_mb":                  {median(m.rssMB), "MB"},
		"disk_bytes_per_doc_byte": {float64(m.diskBytes) / float64(m.liveBytes), "ratio"},
	}
}

// reported computes the reported, ungated end-to-end metrics of the
// fixed phase: latency from due time of every PUT and per-document
// lineage read (cross-document queries cost a store-wide rebuild each
// and have their own row), the max-rate search's result, the two
// parts of server_cpu_ref_per_op, and the server's peak RSS.
func (m *measurement) reported() map[string]metric {
	var lat []float64
	for _, s := range m.fixed.samples {
		if !s.failed && s.class != opXRead {
			lat = append(lat, ms(s.latency()))
		}
	}
	sort.Float64s(lat)
	return map[string]metric{
		"op_p50_ms":            {quantile(lat, 0.50), "ms"},
		"op_p90_ms":            {quantile(lat, 0.90), "ms"},
		"op_p99_ms":            {quantile(lat, 0.99), "ms"},
		"max_rate_ops_s":       {m.maxRate, "ops/s"},
		"server_cpu_ms_per_op": {m.cpuPerOp(), "ms"},
		"ref_task_ms":          {median(m.refMs), "ms"},
		"rss_peak_mb":          {float64(m.hwm) / (1 << 20), "MB"},
	}
}

func (m *measurement) sampleCounts() map[string]int {
	out := map[string]int{}
	for c, s := range m.fixed.stats() {
		if s.n > 0 {
			out[classNames[c]] = s.n
		}
	}
	out["setup"] = len(m.setups)
	out["max_rate_probes"] = len(m.probes)
	return out
}

func postMark(base, name string) error {
	resp, err := http.Post(base+"/perfbench/mark?name="+name, "text/plain", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mark %s: status %d", name, resp.StatusCode)
	}
	return nil
}

func postDump(base string) (map[string]int64, error) {
	resp, err := http.Post(base+"/perfbench/dump", "text/plain", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dump: status %d", resp.StatusCode)
	}
	var synced map[string]int64
	return synced, json.NewDecoder(resp.Body).Decode(&synced)
}

func readDump(path string) (*traceDump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d traceDump
	return &d, json.Unmarshal(b, &d)
}

// truncateToSynced cuts every journal segment back to the length it
// had at its last fsync, so the restart reads only flushed bytes: a
// kill -9 alone would keep the page cache.
func truncateToSynced(synced map[string]int64) error {
	for path, n := range synced {
		st, err := os.Stat(path)
		if os.IsNotExist(err) {
			continue // compacted away
		}
		if err != nil {
			return err
		}
		if st.Size() > n {
			if err := os.Truncate(path, n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) saveResult(ctx runContext, plain, tr *measurement) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(b.dir)), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]interface{}{"context": ctx, "end_to_end": plain.endToEnd(), "reported": plain.reported(),
		"classes": classTable(plain), "ref_task_ms": plain.refMs}
	if tr != nil {
		rec["traced_end_to_end"] = tr.endToEnd()
		rec["traced_reported"] = tr.reported()
		rec["per_layer"] = tr.layers
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.seed, btoi(tr != nil))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
