package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// TestCoordinatedOmission points the open-loop generator at a server
// that stalls every request for one second. Requests due during the
// stall must report the wait in their latency, timed from when they
// were due, and the send lag must show that they went out late.
func TestCoordinatedOmission(t *testing.T) {
	const (
		rate       = 100.0
		n          = 200 // two seconds of load
		stallStart = 500 * time.Millisecond
		stallEnd   = 1500 * time.Millisecond
	)
	var t0 time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if since := time.Since(t0); since >= stallStart && since < stallEnd {
			time.Sleep(stallEnd - since)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{class: opRead, method: "GET", path: "/x", want: &readWant{body: []byte("ok")}}
	}
	cs := newClients(srv.URL, 2)
	defer closeClients(cs)
	p := &phase{name: "co", ops: ops, rate: rate}
	t0 = time.Now()
	p.run(cs)

	if _, failed, _ := p.counts(); failed > 0 {
		t.Fatalf("%d ops failed: %s", failed, p.firstError())
	}
	const slack = 30 * time.Millisecond
	stalled := 0
	for i, s := range p.samples {
		// Offset between t0 and the phase start is a few µs; the
		// slack absorbs it and scheduling noise.
		if s.due < stallStart+slack || s.due >= stallEnd-slack {
			continue
		}
		stalled++
		if want := stallEnd - s.due - slack; s.latency() < want {
			t.Errorf("op %d due at %v: latency %v, want at least %v (the stall it waited out)", i, s.due, s.latency(), want)
		}
	}
	if stalled < 80 {
		t.Fatalf("only %d ops were due during the stall", stalled)
	}
	lags := p.sendLags()
	if p99 := quantile(lags, 0.99); p99 < 500 {
		t.Errorf("send lag p99 %.1fms, want at least 500ms: ops due during the stall were sent late", p99)
	}
	// A closed-loop timer (from send to reply) would hide most of the
	// stall; the due-time latency must not.
	st := p.stats()[opRead]
	if p99 := quantile(st.lat, 0.99); p99 < 900 {
		t.Errorf("latency p99 %.1fms, want at least 900ms", p99)
	}
}

// TestClientChunked checks the generator's HTTP client on a chunked
// response and on connection reuse.
func TestClientChunked(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			_, _ = w.Write([]byte("hello "))
			w.(http.Flusher).Flush()
			_, _ = w.Write([]byte("world"))
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(r.Header.Get("X-Yprov-Trace")))
	}))
	defer srv.Close()
	c := newClients(srv.URL, 1)[0]
	defer c.close()
	for i := 0; i < 3; i++ {
		status, body, err := c.do("GET", "/chunked", nil, "")
		if err != nil || status != 200 || string(body) != "hello world" {
			t.Fatalf("chunked: %d %q %v", status, body, err)
		}
		status, body, err = c.do("PUT", "/doc", []byte("{}"), "t-1")
		if err != nil || status != 201 || string(body) != "t-1" {
			t.Fatalf("put: %d %q %v", status, body, err)
		}
	}
}

// TestInputsDeterministic checks that a seed fixes the inputs and the
// expected answers.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.new(7), w.new(7)
		ca, cb := a.corpus(), b.corpus()
		if len(ca) != len(cb) || len(ca) == 0 {
			t.Fatalf("%s: corpus sizes %d, %d", w.name, len(ca), len(cb))
		}
		for i := range ca {
			if !bytes.Equal(ca[i].encode(), cb[i].encode()) {
				t.Fatalf("%s: document %d differs between runs of one seed", w.name, i)
			}
		}
		oa, ob := a.next(300), b.next(300)
		for i := range oa {
			if oa[i].path != ob[i].path || !bytes.Equal(oa[i].body, ob[i].body) {
				t.Fatalf("%s: op %d differs between runs of one seed", w.name, i)
			}
			if oa[i].want != nil && !bytes.Equal(oa[i].want.body, ob[i].want.body) {
				t.Fatalf("%s: answer %d differs between runs of one seed", w.name, i)
			}
		}
		if c := w.new(8).corpus(); bytes.Equal(c[0].encode(), ca[0].encode()) {
			t.Errorf("%s: seeds 7 and 8 give the same first document", w.name)
		}
	}
}

// TestClosure checks the expected-answer BFS on a small chain.
func TestClosure(t *testing.T) {
	d := &docSpec{id: "d"}
	d.add("ex:a", classEntity)
	d.add("ex:s", classActivity)
	d.add("ex:b", classEntity)
	d.rel("used", "ex:s", "ex:a")
	d.rel("wasGeneratedBy", "ex:b", "ex:s")
	g := docGraph(d)
	if got := g.closure("ex:b", true, 10); !equalStrings(got, []string{"ex:a", "ex:s"}) {
		t.Errorf("ancestors of b = %v", got)
	}
	if got := g.closure("ex:b", true, 1); !equalStrings(got, []string{"ex:s"}) {
		t.Errorf("ancestors of b within 1 hop = %v", got)
	}
	if got := g.closure("ex:a", false, 10); !equalStrings(got, []string{"ex:b", "ex:s"}) {
		t.Errorf("descendants of a = %v", got)
	}
	if got := g.closure("ex:a", true, 10); len(got) != 0 {
		t.Errorf("ancestors of a = %v", got)
	}
}

// TestRefTask checks that the reference task's input is fixed and that
// the sampler times it and reads the resident set size.
func TestRefTask(t *testing.T) {
	if len(refDoc) < 8000 || len(refKeys) != 1500 {
		t.Fatalf("reference input: %d doc bytes, %d keys", len(refDoc), len(refKeys))
	}
	again := runDoc(subRand(-1, 999, 0), "run-ref", "ref", "v0", 16000).encode()
	if !bytes.Equal(again, refDoc) {
		t.Error("reference document differs between builds of it")
	}
	r := startSampler(os.Getpid())
	time.Sleep(3 * refEvery)
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if len(r.rssMB) != len(r.refMs) || r.rssMB[0] <= 0 {
		t.Errorf("RSS samples %v for %d reference samples", r.rssMB, len(r.refMs))
	}
	for _, x := range r.refMs {
		if x <= 0 || x > 1000 {
			t.Errorf("reference task took %v ms of CPU", x)
		}
	}
}
