package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark's inputs are PROV-JSON documents it generates itself,
// in the yProv4ML layout: an experiment entity, a run activity with
// its contexts and epochs, parameters, per-epoch metric entities, and
// model and dataset artifacts. Workflow documents add chains of steps
// whose dataset entities are shared across documents. No code of the
// program under test is used to build them, so every commit receives
// byte-identical inputs for a given seed. Every expected answer (PUT
// statistics, lineage closures, cross-document lineage) is computed
// from the same in-memory description by the benchmark's own BFS.

// elemClass is the PROV class of an element.
type elemClass byte

const (
	classEntity elemClass = iota
	classActivity
	classAgent
)

type attr struct {
	key string
	val interface{} // string, int, or float64
}

type element struct {
	id    string
	class elemClass
	attrs []attr
	start time.Time // activities only; zero = absent
	end   time.Time
}

type relation struct {
	kind      string
	subj, obj string
}

// relRoles gives, per relation kind, the PROV-JSON keys of the subject
// and object. Edges point from subject to object (toward origins).
var relRoles = map[string][2]string{
	"used":              {"prov:activity", "prov:entity"},
	"wasGeneratedBy":    {"prov:entity", "prov:activity"},
	"wasAssociatedWith": {"prov:activity", "prov:agent"},
	"wasAttributedTo":   {"prov:entity", "prov:agent"},
	"wasDerivedFrom":    {"prov:generatedEntity", "prov:usedEntity"},
	"wasInformedBy":     {"prov:informed", "prov:informant"},
	"actedOnBehalfOf":   {"prov:delegate", "prov:responsible"},
}

// relKinds fixes the section order of the encoding.
var relKinds = []string{"used", "wasGeneratedBy", "wasAssociatedWith", "wasAttributedTo",
	"wasDerivedFrom", "wasInformedBy", "actedOnBehalfOf"}

// docSpec is one generated document.
type docSpec struct {
	id      string
	elems   []element
	rels    []relation
	variant string // value of provml:variant on the element named by varOn
	varOn   string
}

// variantKey is the attribute whose value tells re-uploads apart.
const variantKey = "provml:variant"

var epoch0 = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)

func (d *docSpec) add(id string, c elemClass, attrs ...attr) *element {
	d.elems = append(d.elems, element{id: id, class: c, attrs: attrs})
	return &d.elems[len(d.elems)-1]
}

func (d *docSpec) rel(kind, subj, obj string) {
	d.rels = append(d.rels, relation{kind: kind, subj: subj, obj: obj})
}

// counts returns the PUT response statistics the server must report.
func (d *docSpec) counts() (entities, activities, agents, relations int) {
	for _, e := range d.elems {
		switch e.class {
		case classEntity:
			entities++
		case classActivity:
			activities++
		case classAgent:
			agents++
		}
	}
	return entities, activities, agents, len(d.rels)
}

// signature hashes the sorted element ids and the variant: a document
// read back after a crash must match it exactly.
func (d *docSpec) signature() uint64 {
	ids := make([]string, 0, len(d.elems))
	for _, e := range d.elems {
		ids = append(ids, e.id)
	}
	return elementSignature(ids, d.variant)
}

func elementSignature(ids []string, variant string) uint64 {
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	h.Write([]byte(variant))
	return h.Sum64()
}

// encode renders the document as PROV-JSON.
func (d *docSpec) encode() []byte {
	b := make([]byte, 0, 256+len(d.elems)*160+len(d.rels)*110)
	b = append(b, `{"prefix":{"ex":"http://example.org/ns/default#","provml":"http://example.org/ns/provml#"}`...)
	for _, sec := range []struct {
		name  string
		class elemClass
	}{{"entity", classEntity}, {"activity", classActivity}, {"agent", classAgent}} {
		first := true
		for i := range d.elems {
			e := &d.elems[i]
			if e.class != sec.class {
				continue
			}
			if first {
				b = append(b, `,"`...)
				b = append(b, sec.name...)
				b = append(b, `":{`...)
				first = false
			} else {
				b = append(b, ',')
			}
			b = appendStr(b, e.id)
			b = append(b, ":{"...)
			n := 0
			for _, a := range e.attrs {
				if n > 0 {
					b = append(b, ',')
				}
				b = appendStr(b, a.key)
				b = append(b, ':')
				b = appendVal(b, a.val)
				n++
			}
			if e.id == d.varOn {
				if n > 0 {
					b = append(b, ',')
				}
				b = appendStr(b, variantKey)
				b = append(b, ':')
				b = appendStr(b, d.variant)
				n++
			}
			for _, t := range []struct {
				key string
				at  time.Time
			}{{"prov:startTime", e.start}, {"prov:endTime", e.end}} {
				if t.at.IsZero() {
					continue
				}
				if n > 0 {
					b = append(b, ',')
				}
				b = appendStr(b, t.key)
				b = append(b, ':')
				b = appendStr(b, t.at.Format(time.RFC3339))
				n++
			}
			b = append(b, '}')
		}
		if !first {
			b = append(b, '}')
		}
	}
	for _, kind := range relKinds {
		roles := relRoles[kind]
		first := true
		for i, r := range d.rels {
			if r.kind != kind {
				continue
			}
			if first {
				b = append(b, `,"`...)
				b = append(b, kind...)
				b = append(b, `":{`...)
				first = false
			} else {
				b = append(b, ',')
			}
			b = append(b, `"_:r`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `":{`...)
			b = appendStr(b, roles[0])
			b = append(b, ':')
			b = appendStr(b, r.subj)
			b = append(b, ',')
			b = appendStr(b, roles[1])
			b = append(b, ':')
			b = appendStr(b, r.obj)
			b = append(b, '}')
		}
		if !first {
			b = append(b, '}')
		}
	}
	return append(b, '}')
}

// appendStr writes s as a JSON string. Generated strings are plain
// ASCII without quotes, backslashes or HTML-sensitive characters.
func appendStr(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendVal(b []byte, v interface{}) []byte {
	switch x := v.(type) {
	case string:
		return appendStr(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	panic(fmt.Sprintf("unsupported attribute value %T", v))
}

// Document shapes.

var metricNames = []string{"loss", "accuracy", "lr", "grad_norm", "gpu_power_w", "gpu_mem_gb", "throughput", "energy_j"}
var paramNames = []string{"batch_size", "learning_rate", "optimizer", "epochs", "seed", "weight_decay", "model", "precision"}

// datasetPool is the number of distinct shared dataset entities.
const datasetPool = 48

func datasetID(k int) string { return "ex:dataset_" + strconv.Itoa(k) }

// runDoc builds a yProv4ML run document of roughly target bytes of
// PROV-JSON. key makes its local names unique; experiments, users,
// the library agent and datasets are shared with other documents.
func runDoc(rng *rand.Rand, id, key, variant string, target int) *docSpec {
	d := &docSpec{id: id, variant: variant}
	exp := "ex:experiment_" + strconv.Itoa(rng.Intn(40))
	user := "ex:user_" + strconv.Itoa(rng.Intn(12))
	run := "ex:" + key + "_run"
	lib := "ex:yprov4ml"
	start := epoch0.Add(time.Duration(rng.Intn(86400*30)) * time.Second)
	d.add(exp, classEntity, attr{"prov:type", "provml:Experiment"}, attr{"provml:name", exp[3:]})
	ra := d.add(run, classActivity, attr{"prov:type", "provml:RunExecution"}, attr{"provml:run_id", key})
	ra.start, ra.end = start, start.Add(time.Duration(600+rng.Intn(7200))*time.Second)
	d.varOn = run
	d.add(user, classAgent, attr{"prov:type", "prov:Person"})
	d.add(lib, classAgent, attr{"prov:type", "prov:SoftwareAgent"}, attr{"provml:version", "1.4.0"})
	d.rel("wasAssociatedWith", run, user)
	d.rel("wasAssociatedWith", run, lib)
	d.rel("actedOnBehalfOf", lib, user)
	d.rel("used", run, exp)

	for _, p := range paramNames[:2+rng.Intn(7)] {
		pid := "ex:" + key + "_param_" + p
		d.add(pid, classEntity, attr{"prov:type", "provml:Parameter"}, attr{"provml:name", p},
			attr{"provml:value", rng.Intn(1 << 16)})
		d.rel("used", run, pid)
	}
	ds := datasetID(rng.Intn(datasetPool))
	d.add(ds, classEntity, attr{"prov:type", "provml:Dataset"}, attr{"provml:name", ds[3:]})

	nMetrics := 2 + rng.Intn(5)
	// The base document is ~4 KB; each epoch adds its activity (~260 B)
	// and a metric entity with its relation (~330 B) per metric.
	epochs := (target - 4000) / (330*nMetrics + 260)
	if epochs < 1 {
		epochs = 1
	}
	model := "ex:" + key + "_model"
	for ci, ctxName := range []string{"training", "validation"} {
		ctx := "ex:" + key + "_ctx_" + ctxName
		ca := d.add(ctx, classActivity, attr{"prov:type", "provml:Context"}, attr{"provml:context", ctxName})
		ca.start, ca.end = ra.start, ra.end
		d.rel("wasInformedBy", ctx, run)
		if ci == 0 {
			d.rel("used", ctx, ds)
			d.add(model, classEntity, attr{"prov:type", "provml:Artifact"}, attr{"provml:kind", "model"},
				attr{"provml:size", 1 << (20 + rng.Intn(8))})
			d.rel("wasGeneratedBy", model, ctx)
			d.rel("wasAttributedTo", model, user)
			d.rel("wasDerivedFrom", model, ds)
		}
		n := epochs
		if ci == 1 {
			n = (epochs + 3) / 4
		}
		for e := 0; e < n; e++ {
			ep := ctx + "_epoch" + strconv.Itoa(e)
			ea := d.add(ep, classActivity, attr{"prov:type", "provml:Epoch"}, attr{"provml:epoch", e})
			ea.start = ra.start.Add(time.Duration(e) * time.Minute)
			ea.end = ea.start.Add(time.Minute)
			d.rel("wasInformedBy", ep, ctx)
			for _, m := range metricNames[:nMetrics] {
				mid := ep + "_" + m
				d.add(mid, classEntity, attr{"prov:type", "provml:Metric"}, attr{"provml:name", m},
					attr{"provml:mean", math.Round(rng.Float64()*1e6) / 1e3},
					attr{"provml:points", 50 + rng.Intn(500)},
					attr{"provml:storage", "zarr://" + key + "/" + m})
				d.rel("wasGeneratedBy", mid, ep)
			}
		}
	}
	return d
}

// chainDoc builds a workflow document: a chain of steps, each using the
// previous step's dataset and generating the next. root is the chain's
// input dataset — a shared pool dataset or another chain's output — so
// chains join across documents.
func chainDoc(rng *rand.Rand, id, key, variant, root string, steps int) *docSpec {
	d := &docSpec{id: id, variant: variant}
	user := "ex:user_" + strconv.Itoa(rng.Intn(12))
	wf := "ex:" + key + "_wf"
	start := epoch0.Add(time.Duration(rng.Intn(86400*30)) * time.Second)
	wa := d.add(wf, classActivity, attr{"prov:type", "provml:Workflow"}, attr{"provml:steps", steps})
	wa.start, wa.end = start, start.Add(time.Duration(steps)*time.Minute)
	d.varOn = wf
	d.add(user, classAgent, attr{"prov:type", "prov:Person"})
	d.rel("wasAssociatedWith", wf, user)
	d.add(root, classEntity, attr{"prov:type", "provml:Dataset"})
	prev := root
	for i := 1; i <= steps; i++ {
		s := "ex:" + key + "_s" + strconv.Itoa(i)
		out := "ex:" + key + "_d" + strconv.Itoa(i)
		if i == steps {
			out = chainOut(key)
		}
		d.add(s, classActivity, attr{"prov:type", "provml:WorkflowStep"}, attr{"provml:step", i})
		d.add(out, classEntity, attr{"prov:type", "provml:Artifact"}, attr{"provml:size", 1024 + rng.Intn(1<<20)})
		d.rel("used", s, prev)
		d.rel("wasGeneratedBy", out, s)
		d.rel("wasDerivedFrom", out, prev)
		d.rel("wasInformedBy", s, wf)
		prev = out
	}
	return d
}

func chainOut(key string) string { return "ex:" + key + "_out" }

// Expected answers.

// graph is the adjacency of one document, or of the union of many.
type graph struct {
	out, in map[string][]string
	docs    map[string][]string // element -> ids of the documents mentioning it
}

func newGraph() *graph {
	return &graph{out: map[string][]string{}, in: map[string][]string{}, docs: map[string][]string{}}
}

func (g *graph) addDoc(d *docSpec) {
	for _, e := range d.elems {
		g.docs[e.id] = append(g.docs[e.id], d.id)
	}
	for _, r := range d.rels {
		g.out[r.subj] = append(g.out[r.subj], r.obj)
		g.in[r.obj] = append(g.in[r.obj], r.subj)
	}
}

func docGraph(d *docSpec) *graph {
	g := newGraph()
	g.addDoc(d)
	return g
}

// closure returns the nodes reachable from start within depth hops
// (start excluded), sorted. Ancestors follow subject->object edges.
func (g *graph) closure(start string, ancestors bool, depth int) []string {
	adj := g.in
	if ancestors {
		adj = g.out
	}
	seen := map[string]bool{start: true}
	frontier := []string{start}
	var reach []string
	for hop := 0; hop < depth && len(frontier) > 0; hop++ {
		var next []string
		for _, n := range frontier {
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					reach = append(reach, m)
					next = append(next, m)
				}
			}
		}
		frontier = next
	}
	sort.Strings(reach)
	return reach
}

// lineageBody is the exact response body the server encodes for a
// per-document lineage query; the check falls back to comparing the
// parsed node list when the bytes differ.
func lineageBody(doc, node, dir string, depth int, nodes []string) []byte {
	var sb strings.Builder
	sb.WriteString(`{"depth":`)
	sb.WriteString(strconv.Itoa(depth))
	sb.WriteString(`,"direction":"` + dir + `","document":"` + doc + `","node":"` + node + `","nodes":`)
	writeStrList(&sb, nodes)
	sb.WriteString("}\n")
	return []byte(sb.String())
}

func writeStrList(sb *strings.Builder, xs []string) {
	sb.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`"` + x + `"`)
	}
	sb.WriteByte(']')
}

// crossNode mirrors one entry of a cross-document lineage answer.
type crossNode struct {
	Node string
	Docs []string
}

func (g *graph) crossClosure(start string, ancestors bool, depth int) []crossNode {
	nodes := g.closure(start, ancestors, depth)
	out := make([]crossNode, len(nodes))
	for i, n := range nodes {
		docs := dedupSorted(g.docs[n])
		out[i] = crossNode{Node: n, Docs: docs}
	}
	return out
}

func dedupSorted(xs []string) []string {
	ys := append([]string(nil), xs...)
	sort.Strings(ys)
	out := ys[:0]
	for i, y := range ys {
		if i == 0 || y != ys[i-1] {
			out = append(out, y)
		}
	}
	return out
}

func crossBody(node, dir string, depth int, nodes []crossNode) []byte {
	var sb strings.Builder
	sb.WriteString(`{"depth":`)
	sb.WriteString(strconv.Itoa(depth))
	sb.WriteString(`,"direction":"` + dir + `","node":"` + node + `","nodes":[`)
	for i, n := range nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"Node":"` + n.Node + `","Docs":`)
		writeStrList(&sb, n.Docs)
		sb.WriteByte('}')
	}
	sb.WriteString("]}\n")
	return []byte(sb.String())
}

// logQuantile maps u in (0,1) to [lo, hi] with a log-uniform density.
func logQuantile(u float64, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi))-math.Log(float64(lo))))
	return min(max(int(v), lo), hi)
}

// strataBlock is the number of items over which every size stratum
// occurs exactly once.
const strataBlock = 64

// stratum returns item i's stratum in (0,1). Items come in blocks of
// strataBlock that each hold every stratum once, in an order the seed
// picks: the seed changes which item gets which size, but not the mix
// of sizes, so the work a run offers does not depend on the seed.
func stratum(seed int64, stream, i int) float64 {
	perm := subRand(seed, stream+100, i/strataBlock).Perm(strataBlock)
	return (float64(perm[i%strataBlock]) + 0.5) / strataBlock
}

// subRand derives an independent deterministic stream for one item.
func subRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_009 + int64(i)))
}
