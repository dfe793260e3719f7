package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Op classes: every op belongs to exactly one, and each class has its
// own latency distribution and p99 limit.
const (
	opWrite = iota // PUT of one document
	opRead         // per-document lineage
	opXRead        // cross-document lineage
	numClasses
)

var classNames = [numClasses]string{"write", "read", "xlineage"}

// p99Limit is the latency limit of each class in the max-rate search
// (0 = no limit).
var p99Limit = [numClasses]time.Duration{50 * time.Millisecond, 20 * time.Millisecond, 0}

// op is one request of a load phase, with the answer it must get.
type op struct {
	class  int
	method string
	path   string
	body   []byte
	// Writes: the document written, for the durability check.
	write *writeRec
	// Reads: the expected body (byte-exact fast path) and the parsed
	// form it is compared against when the bytes differ.
	want *readWant
}

// writeRec tracks one PUT: what was sent and what the server said.
type writeRec struct {
	id         string
	sig        uint64
	variant    string
	size       int
	counts     [4]int // entities, activities, agents, relations
	acked      bool
	unknown    bool // transport error: the outcome is not known
	sent, done time.Time
}

type readWant struct {
	body  []byte
	nodes []string    // per-document lineage
	cross []crossNode // cross-document lineage
}

// sample is the client's record of one op.
type sample struct {
	class           int
	due, sent, done time.Duration // since the phase start
	failed, wrong   bool
	firstErr        string
	spans           string // the server's X-Yprov-Spans, in traced runs
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) sendLag() time.Duration { return s.sent - s.due }

// phase is one open-loop run of a fixed op list at a fixed rate.
type phase struct {
	name    string // trace-id prefix
	ops     []op
	rate    float64
	samples []sample
	start   time.Time
	end     time.Time
}

// dueAt is when op i is due: ops are spaced evenly at the offered rate.
func (p *phase) dueAt(i int) time.Duration {
	return time.Duration(float64(i) / p.rate * float64(time.Second))
}

// run drives the phase open loop: op i is due at start + i/rate no
// matter how earlier ops fare. Each client takes the next op, waits
// for its due time (or sends at once when already late), and the
// latency is timed from the due time — so time an op spent queued
// behind a stalled server counts, and how late it was sent is recorded
// as its send lag.
func (p *phase) run(cs []*client) {
	p.samples = make([]sample, len(p.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				due := p.dueAt(i)
				sleepUntil(p.start.Add(due))
				p.samples[i] = p.exec(c, i, due)
			}
		}(c)
	}
	wg.Wait()
	p.end = time.Now()
}

func (p *phase) exec(c *client, i int, due time.Duration) sample {
	o := &p.ops[i]
	s := sample{class: o.class, due: due, sent: time.Since(p.start)}
	status, body, err := c.do(o.method, o.path, o.body, p.name+"-"+strconv.Itoa(i))
	s.done = time.Since(p.start)
	s.spans = c.spans
	if o.write != nil {
		o.write.sent, o.write.done = p.start.Add(s.sent), p.start.Add(s.done)
	}
	if err != nil {
		s.failed = true
		s.firstErr = err.Error()
		if o.write != nil {
			o.write.unknown = true
		}
		return s
	}
	if cerr := o.check(status, body); cerr != nil {
		s.failed = true
		// An answer that differs from the expected one is a correctness
		// failure; a request refused under overload (429, 503) is only a
		// failed op.
		s.wrong = status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable
		s.firstErr = cerr.Error()
		return s
	}
	if o.write != nil {
		o.write.acked = true
	}
	return s
}

// check compares a response with the expected answer.
func (o *op) check(status int, body []byte) error {
	switch o.class {
	case opWrite:
		if status != http.StatusCreated {
			return fmt.Errorf("PUT %s: status %d: %.200s", o.path, status, body)
		}
		var got struct {
			ID    string         `json:"id"`
			Stats map[string]int `json:"stats"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("PUT %s: bad body: %v", o.path, err)
		}
		w := o.write
		c := [4]int{got.Stats["Entities"], got.Stats["Activities"], got.Stats["Agents"], got.Stats["Relations"]}
		if got.ID != w.id || c != w.counts {
			return fmt.Errorf("PUT %s: answer id=%q stats=%v, want id=%q stats=%v", o.path, got.ID, c, w.id, w.counts)
		}
		return nil
	default:
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %.200s", o.path, status, body)
		}
		if bytes.Equal(body, o.want.body) {
			return nil
		}
		return o.want.compare(o.class, body)
	}
}

// compare checks the parsed answer when the bytes differ from the
// expected encoding, so a change of formatting alone is not an error.
func (w *readWant) compare(class int, body []byte) error {
	if class == opRead {
		var got struct {
			Nodes []string `json:"nodes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("lineage: bad body: %v", err)
		}
		if !equalStrings(got.Nodes, w.nodes) {
			return fmt.Errorf("lineage: %d nodes, want %d (first diff at %d)", len(got.Nodes), len(w.nodes), firstDiff(got.Nodes, w.nodes))
		}
		return nil
	}
	var got struct {
		Nodes []crossNode `json:"nodes"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("cross lineage: bad body: %v", err)
	}
	if len(got.Nodes) != len(w.cross) {
		return fmt.Errorf("cross lineage: %d nodes, want %d", len(got.Nodes), len(w.cross))
	}
	for i := range got.Nodes {
		if got.Nodes[i].Node != w.cross[i].Node || !equalStrings(got.Nodes[i].Docs, w.cross[i].Docs) {
			return fmt.Errorf("cross lineage: node %d is %v, want %v", i, got.Nodes[i], w.cross[i])
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// sleepUntil blocks until t. It sleeps in nanosleep(2), which wakes
// within ~0.1ms: time.Sleep waits in the runtime's network poller with
// millisecond granularity, which would add up to a millisecond of the
// generator's own lag to every op.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// Statistics.

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// reportable says whether the q-quantile of n samples has at least ten
// samples beyond it.
func reportable(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// classStats summarises one op class of a phase.
type classStats struct {
	n, failed int
	lat       []float64 // ms, sorted
}

func (p *phase) stats() [numClasses]*classStats {
	var cs [numClasses]*classStats
	for i := range cs {
		cs[i] = &classStats{}
	}
	for _, s := range p.samples {
		c := cs[s.class]
		c.n++
		if s.failed {
			c.failed++
			continue
		}
		c.lat = append(c.lat, ms(s.latency()))
	}
	for _, c := range cs {
		sort.Float64s(c.lat)
	}
	return cs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sendLags returns the phase's send lags in ms, sorted.
func (p *phase) sendLags() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = ms(s.sendLag())
	}
	sort.Float64s(xs)
	return xs
}

// firstError returns the first failure of the phase, for diagnostics.
func (p *phase) firstError() string {
	for _, s := range p.samples {
		if s.failed {
			return s.firstErr
		}
	}
	return ""
}

func (p *phase) counts() (attempted, failed, wrong int) {
	for _, s := range p.samples {
		attempted++
		if s.failed {
			failed++
		}
		if s.wrong {
			wrong++
		}
	}
	return
}
