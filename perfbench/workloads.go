package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
)

// A workload is a corpus preloaded before timing plus a deterministic
// stream of ops offered at a fixed nominal rate.
type workload struct {
	name string
	why  string
	// rate is the nominal offered rate (ops/s) of the timed phase.
	rate float64
	// durable workloads write, so the run ends with the crash check.
	durable bool
	new     func(seed int64) source
}

// source generates a workload's corpus and op stream from the seed.
type source interface {
	// corpus returns the documents preloaded before timing.
	corpus() []*docSpec
	// next returns the next n ops of the stream.
	next(n int) []op
	// sampleBodies returns request bodies for the codec timing.
	sampleBodies() [][]byte
}

// lineageDepth is the explicit ?depth= of per-document lineage
// queries: deep enough to walk a 512-step chain end to end.
const lineageDepth = 1024

// xDepth bounds cross-document lineage, which rebuilds a union graph
// over every stored document per call: the answer stays small, the
// cost is the rebuild.
const xDepth = 4

var workloads = []workload{
	{
		name:    "ingest",
		why:     "run ends, its provenance is uploaded: single-document PUTs of fresh yProv4ML run documents over a preloaded corpus",
		rate:    50,
		durable: true,
		new:     newIngest,
	},
	{
		name: "lineage-hot",
		why:  "dashboards polling hot runs: Zipf-skewed lineage reads over deep workflow chains, a key set that fits the read cache",
		rate: 800,
		new:  newLineageHot,
	},
	{
		name:    "mixed",
		why:     "runs landing while users trace lineage: uniform cold lineage reads, 1 in 8 re-uploads, a few cross-document queries",
		rate:    300,
		durable: true,
		new:     newMixed,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func docPath(id string) string { return "/api/v0/documents/" + url.PathEscape(id) }

func putOp(d *docSpec) op {
	body := d.encode()
	e, a, g, r := d.counts()
	return op{
		class:  opWrite,
		method: "PUT",
		path:   docPath(d.id),
		body:   body,
		write: &writeRec{id: d.id, sig: d.signature(), variant: d.variant, size: len(body),
			counts: [4]int{e, a, g, r}},
	}
}

func dirName(ancestors bool) string {
	if ancestors {
		return "ancestors"
	}
	return "descendants"
}

func lineageOp(doc, node string, ancestors bool, want *readWant) op {
	return op{
		class:  opRead,
		method: "GET",
		path: docPath(doc) + "/lineage?node=" + url.QueryEscape(node) + "&direction=" + dirName(ancestors) +
			"&depth=" + strconv.Itoa(lineageDepth),
		want: want,
	}
}

func lineageWant(g *graph, doc, node string, ancestors bool) *readWant {
	nodes := g.closure(node, ancestors, lineageDepth)
	return &readWant{body: lineageBody(doc, node, dirName(ancestors), lineageDepth, nodes), nodes: nodes}
}

// ingest: fresh run documents (3-30 KB) over a preloaded corpus.

type ingest struct {
	seed   int64
	n      int // fresh documents generated so far
	bodies [][]byte
}

const ingestPreload = 1000

func newIngest(seed int64) source { return &ingest{seed: seed} }

func ingestDoc(seed int64, stream, i int, prefix string) *docSpec {
	rng := subRand(seed, stream, i)
	key := prefix + strconv.Itoa(i)
	return runDoc(rng, "run-"+key, key, "v0", logQuantile(stratum(seed, stream, i), 2000, 30000))
}

func (w *ingest) corpus() []*docSpec {
	ds := make([]*docSpec, ingestPreload)
	for i := range ds {
		ds[i] = ingestDoc(w.seed, 1, i, "p")
	}
	return ds
}

func (w *ingest) next(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = putOp(ingestDoc(w.seed, 2, w.n, "n"))
		if len(w.bodies) < 200 {
			w.bodies = append(w.bodies, ops[i].body)
		}
		w.n++
	}
	return ops
}

func (w *ingest) sampleBodies() [][]byte { return w.bodies }

// Workflow corpora shared by lineage-hot and mixed.

type chains struct {
	docs   []*docSpec
	graphs []*graph
}

// buildChains generates n chain documents. About a third start from
// an earlier chain's output instead of a pool dataset, so lineage
// crosses document boundaries.
func buildChains(seed int64, stream, n int, prefix string) *chains {
	c := &chains{}
	for i := 0; i < n; i++ {
		c.docs = append(c.docs, chainSpec(seed, stream, i, prefix, "v0"))
		c.graphs = append(c.graphs, docGraph(c.docs[i]))
	}
	return c
}

// chainSpec regenerates chain i; only the variant differs between
// uploads of one document, so every lineage answer is fixed.
func chainSpec(seed int64, stream, i int, prefix, variant string) *docSpec {
	rng := subRand(seed, stream, i)
	key := prefix + strconv.Itoa(i)
	lo, hi := chainSteps[stream][0], chainSteps[stream][1]
	steps := logQuantile(stratum(seed, stream, i), lo, hi)
	root := datasetID(rng.Intn(datasetPool))
	if i > 0 && rng.Intn(3) == 0 {
		root = chainOut(prefix + strconv.Itoa(rng.Intn(i)))
	}
	return chainDoc(rng, "wf-"+key, key, variant, root, steps)
}

// chainSteps gives the step range per chain stream.
var chainSteps = map[int][2]int{3: {16, 512}, 4: {4, 48}}

func bodiesOf(ds []*docSpec, n int) [][]byte {
	var bs [][]byte
	for i := 0; i < len(ds) && i < n; i++ {
		bs = append(bs, ds[i].encode())
	}
	return bs
}

// lineage-hot: Zipf-skewed reads over a key set that fits the cache.

type lineageHot struct {
	seed   int64
	keys   []op
	zipf   *rand.Zipf
	bodies [][]byte
}

const hotChains = 200

func newLineageHot(seed int64) source {
	// Only the keys and their answers are kept: the corpus is rebuilt
	// for the preload, so the generator's heap stays small.
	w := &lineageHot{seed: seed}
	ch := buildChains(seed, 3, hotChains, "h")
	w.bodies = bodiesOf(ch.docs, 50)
	// Popularity follows chain length, not chain identity: the chains
	// sorted by length are visited in a fixed spread order, so the key
	// of each Zipf rank has the same size under every seed (the seed
	// picks which chain that is). Each chain has four keys: the
	// ancestors of its output, the descendants of its input, and both
	// directions from its middle.
	order := make([]int, len(ch.docs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(ch.docs[order[a]].elems) < len(ch.docs[order[b]].elems) })
	w.keys = make([]op, 4*hotChains)
	for q := 0; q < 4; q++ {
		for j := 0; j < hotChains; j++ {
			i := order[(j*77+hotChains/2+q*hotChains/4)%hotChains]
			d, g := ch.docs[i], ch.graphs[i]
			steps := (len(d.elems) - 3) / 2
			mid := "ex:h" + strconv.Itoa(i) + "_d" + strconv.Itoa((steps+1)/2)
			node, anc := chainOut("h"+strconv.Itoa(i)), true
			switch q {
			case 1:
				node, anc = d.elems[2].id, false // the chain's input dataset
			case 2:
				node = mid
			case 3:
				node, anc = mid, false
			}
			w.keys[4*j+q] = lineageOp(d.id, node, anc, lineageWant(g, d.id, node, anc))
		}
	}
	rng := subRand(seed, 5, 0)
	w.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(w.keys)-1))
	return w
}

func (w *lineageHot) corpus() []*docSpec { return buildChains(w.seed, 3, hotChains, "h").docs }

func (w *lineageHot) next(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.keys[w.zipf.Uint64()]
	}
	return ops
}

func (w *lineageHot) sampleBodies() [][]byte { return w.bodies }

// warmKeys returns every key once, so the untimed warm-up fills the
// cache.
func (w *lineageHot) warmKeys() []op { return w.keys }

// mixed: uniform cold reads, re-uploads, cross-document lineage.

type mixed struct {
	seed     int64
	ch       *chains
	union    *graph
	rng      *rand.Rand
	k        int   // ops generated so far
	rr       int   // next document to re-upload
	variants []int // uploads per document
	xwant    map[int]*readWant
	bodies   [][]byte
}

const (
	mixedDocs   = 400
	writeEvery  = 8  // 1 op in 8 re-uploads an existing document
	xlineagePer = 50 // 1 op in 50 is a cross-document query
)

func newMixed(seed int64) source {
	w := &mixed{seed: seed, ch: buildChains(seed, 4, mixedDocs, "m"), union: newGraph(),
		rng: subRand(seed, 6, 0), xwant: map[int]*readWant{}}
	for _, d := range w.ch.docs {
		w.union.addDoc(d)
	}
	w.variants = make([]int, mixedDocs)
	w.rr = w.rng.Intn(mixedDocs)
	return w
}

func (w *mixed) corpus() []*docSpec { return w.ch.docs }

func (w *mixed) next(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		// Fixed positions, so every run offers the same number of writes
		// and cross-document queries; what they touch is random.
		k := w.k
		w.k++
		switch {
		case k%writeEvery == writeEvery-1:
			j := w.rr
			w.rr = (w.rr + 1) % mixedDocs
			w.variants[j]++
			ops[i] = putOp(chainSpec(w.seed, 4, j, "m", "v"+strconv.Itoa(w.variants[j])))
			if len(w.bodies) < 200 {
				w.bodies = append(w.bodies, ops[i].body)
			}
		case k%xlineagePer == xlineagePer/2-1: // even: never a write position
			ops[i] = w.xlineage(w.rng.Intn(datasetPool))
		default:
			j := w.rng.Intn(mixedDocs)
			d := w.ch.docs[j]
			node := d.elems[w.rng.Intn(len(d.elems))].id
			anc := w.rng.Intn(2) == 0
			ops[i] = lineageOp(d.id, node, anc, lineageWant(w.ch.graphs[j], d.id, node, anc))
		}
	}
	return ops
}

// xlineage queries the descendants of a pool dataset across every
// document. Datasets no chain uses are replaced by the first used one.
func (w *mixed) xlineage(k int) op {
	node := datasetID(k)
	if len(w.union.docs[node]) == 0 {
		node = w.ch.docs[0].elems[2].id
	}
	want, ok := w.xwant[k]
	if !ok {
		cross := w.union.crossClosure(node, false, xDepth)
		want = &readWant{body: crossBody(node, "descendants", xDepth, cross), cross: cross}
		w.xwant[k] = want
	}
	return op{
		class:  opXRead,
		method: "GET",
		path:   "/api/v0/lineage?node=" + url.QueryEscape(node) + "&direction=descendants&depth=" + strconv.Itoa(xDepth),
		want:   want,
	}
}

func (w *mixed) sampleBodies() [][]byte {
	if len(w.bodies) > 0 {
		return w.bodies
	}
	return bodiesOf(w.ch.docs, 200)
}
