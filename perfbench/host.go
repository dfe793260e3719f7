package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/readcache"
	"repro/internal/repl"
	"repro/internal/wal"
)

// The traced host serves the same layers as yprov-server, built through
// their public constructors with the same settings, and records a span
// at each public seam: an http.Handler around provservice.Service, a
// provservice.StoreAPI decorator around *provstore.Store, and a wal.FS
// wrapper passed through provstore.Durability.FS. Spans stay in memory
// and are written out when the benchmark asks (/perfbench/dump) or the
// host is stopped.

// Span kinds.
const (
	spHTTP = iota
	spPut
	spLineage
	spXLineage
	spReadVersion
	spWALWrite
	spWALSync
)

// span is one timed call. Times are nanoseconds since the host started.
type span struct {
	Kind  uint8  `json:"k"`
	Trace string `json:"t,omitempty"` // X-Yprov-Trace of the request, when known
	Start int64  `json:"s"`
	Dur   int64  `json:"d"`
	N     int64  `json:"n,omitempty"` // HTTP: status; WAL write: bytes
	Err   bool   `json:"e,omitempty"`
}

// mark is a snapshot of the layers' own counters at a window boundary.
type mark struct {
	Name    string          `json:"name"`
	At      int64           `json:"at"`
	Cache   readcache.Stats `json:"cache"`
	WAL     wal.Stats       `json:"wal"`
	NumGC   uint32          `json:"num_gc"`
	PauseNs uint64          `json:"pause_ns"`
	Alloc   uint64          `json:"total_alloc"`
}

// traceDump is what the host writes out.
type traceDump struct {
	Spans []span `json:"spans"`
	Marks []mark `json:"marks"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	marks []mark
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) timed(kind uint8, trace string, start int64, err error) {
	r.add(span{Kind: kind, Trace: trace, Start: start, Dur: r.now() - start, Err: err != nil})
}

// tracedStore times every StoreAPI call the read and write paths make.
// PutCtx carries a context and is joined to its request by the trace
// ID; Lineage, CrossDocLineage and ReadVersion carry none and are
// summed per layer.
type tracedStore struct {
	*provstore.Store
	rec *recorder
}

func (s tracedStore) PutCtx(ctx context.Context, id string, doc *prov.Document) error {
	t := s.rec.now()
	err := s.Store.PutCtx(ctx, id, doc)
	s.rec.timed(spPut, obs.FromContext(ctx).ID(), t, err)
	return err
}

func (s tracedStore) Lineage(doc string, node prov.QName, dir provstore.LineageDirection, depth int) ([]prov.QName, error) {
	t := s.rec.now()
	out, err := s.Store.Lineage(doc, node, dir, depth)
	s.rec.timed(spLineage, "", t, err)
	return out, err
}

func (s tracedStore) CrossDocLineage(start prov.QName, dir provstore.LineageDirection, depth int) ([]provstore.CrossNode, error) {
	t := s.rec.now()
	out, err := s.Store.CrossDocLineage(start, dir, depth)
	s.rec.timed(spXLineage, "", t, err)
	return out, err
}

func (s tracedStore) ReadVersion(ids ...string) uint64 {
	t := s.rec.now()
	v := s.Store.ReadVersion(ids...)
	s.rec.timed(spReadVersion, "", t, nil)
	return v
}

var _ provservice.StoreAPI = tracedStore{}

// tracedFS times the journal's segment writes and fsyncs, and keeps
// the length of each segment as of its last successful fsync, so the
// crash check can discard every byte the disk was never asked to keep.
type tracedFS struct {
	rec    *recorder
	mu     sync.Mutex
	synced map[string]int64
}

type tracedFile struct {
	wal.File
	fs      *tracedFS
	name    string
	written atomic.Int64
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	var size int64
	if st, err := os.Stat(name); err == nil {
		size = st.Size() // present at open: recovered, so on disk already
	}
	file, err := wal.DefaultFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_TRUNC != 0 {
		size = 0
	}
	tf := &tracedFile{File: file, fs: f, name: name}
	tf.written.Store(size)
	f.mu.Lock()
	f.synced[name] = size
	f.mu.Unlock()
	return tf, nil
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t := f.fs.rec.now()
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	f.fs.rec.add(span{Kind: spWALWrite, Start: t, Dur: f.fs.rec.now() - t, N: int64(n), Err: err != nil})
	return n, err
}

func (f *tracedFile) Sync() error {
	w := f.written.Load() // bytes written before the barrier started
	t := f.fs.rec.now()
	err := f.File.Sync()
	f.fs.rec.timed(spWALSync, "", t, err)
	if err == nil {
		f.fs.mu.Lock()
		f.fs.synced[f.name] = w
		f.fs.mu.Unlock()
	}
	return err
}

func (f *tracedFS) syncedLengths() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := make(map[string]int64, len(f.synced))
	for k, v := range f.synced {
		m[k] = v
	}
	return m
}

// statusWriter captures the response status for the HTTP span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedHandler records one span per request around the service.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.rec.now()
	sw := &statusWriter{ResponseWriter: w}
	h.next.ServeHTTP(sw, r)
	h.rec.add(span{Kind: spHTTP, Trace: r.Header.Get(obs.TraceHeader),
		Start: t, Dur: h.rec.now() - t, N: int64(sw.status)})
}

// hostMain runs the traced host until SIGTERM/SIGINT or SIGKILL.
func hostMain(args []string) error {
	fl := flag.NewFlagSet("host", flag.ContinueOnError)
	addr := fl.String("addr", "127.0.0.1:0", "listen address")
	dataDir := fl.String("data-dir", "", "data directory")
	fsync := fl.Bool("fsync", true, "fsync the journal before acknowledging")
	snapshotEvery := fl.Int("snapshot-every", 256, "mutations between snapshots")
	shards := fl.Int("shards", 4, "store shards")
	spansPath := fl.String("spans", "", "file the spans are written to")
	if err := fl.Parse(args); err != nil {
		return err
	}
	rec := &recorder{t0: time.Now()}
	tfs := &tracedFS{rec: rec, synced: map[string]int64{}}
	store, err := provstore.Open(*dataDir, provstore.Durability{
		Fsync: *fsync, SnapshotEvery: *snapshotEvery, Shards: *shards, FS: tfs,
	})
	if err != nil {
		return fmt.Errorf("opening %s: %w", *dataDir, err)
	}
	// The same instruments and options yprov-server installs by default.
	reg := obs.NewRegistry()
	store.RegisterObs(reg)
	fr := flightrec.New(flightrec.Config{TraceRing: 256, SampleEvery: 16, Logf: log.Printf})
	defer fr.Close()
	rs := repl.NewServer(store.Log(), *fsync)
	rs.RegisterObs(reg)
	svc := provservice.New(tracedStore{Store: store, rec: rec},
		provservice.WithRegistry(reg),
		provservice.WithFlightRecorder(fr),
		provservice.WithReadCache(4096, 64<<20),
		provservice.WithMaxTraversalDepth(1024),
		provservice.WithReplicationPrimary(rs),
	)

	snapshot := func(name string) mark {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m := mark{Name: name, At: rec.now(), NumGC: ms.NumGC, PauseNs: ms.PauseTotalNs,
			Alloc: ms.TotalAlloc}
		if c := svc.ReadCache(); c != nil {
			m.Cache = c.Stats()
		}
		if st := store.Stats(); st.Durability != nil {
			m.WAL = st.Durability.Stats
		}
		return m
	}
	var dumpOnce sync.Once
	dump := func() (map[string]int64, error) {
		var err error
		synced := tfs.syncedLengths()
		dumpOnce.Do(func() {
			rec.mu.Lock()
			d := traceDump{Spans: rec.spans, Marks: rec.marks}
			b, merr := json.Marshal(d)
			rec.mu.Unlock()
			if merr != nil {
				err = merr
				return
			}
			err = os.WriteFile(*spansPath, b, 0o644)
		})
		return synced, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/perfbench/mark", func(w http.ResponseWriter, r *http.Request) {
		m := snapshot(r.URL.Query().Get("name"))
		rec.mu.Lock()
		rec.marks = append(rec.marks, m)
		rec.mu.Unlock()
		_ = json.NewEncoder(w).Encode(m)
	})
	mux.HandleFunc("/perfbench/dump", func(w http.ResponseWriter, r *http.Request) {
		synced, err := dump()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(synced)
	})
	mux.Handle("/", tracedHandler{next: svc, rec: rec})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		_ = svc.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err := svc.Close(); err != nil {
		return err
	}
	_, err = dump()
	return err
}
