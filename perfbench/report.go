package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// e2eOrder is the print order of the end-to-end metrics: the gated
// ones, then the reported ones.
var e2eOrder = []string{"setup_s", "server_cpu_ref_per_op", "rss_mb", "disk_bytes_per_doc_byte",
	"server_cpu_ms_per_op", "ref_task_ms", "rss_peak_mb", "op_p50_ms", "op_p90_ms", "op_p99_ms", "max_rate_ops_s"}

// classMetric is one per-class latency figure of the fixed phase.
type classMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Reportable is false when fewer than ten samples lie beyond the
	// percentile; the value is then printed but not to be relied on.
	Reportable bool `json:"reportable"`
}

// classTable returns the per-class metrics that apply to the workload:
// write/read p50 and p99, cross-document p50 and p90, and the error
// ratio over every op of the run.
func classTable(m *measurement) []classMetric {
	st := m.fixed.stats()
	var out []classMetric
	add := func(class int, q float64, name string) {
		s := st[class]
		if s.n == 0 {
			return
		}
		out = append(out, classMetric{Name: name, Value: quantile(s.lat, q), Unit: "ms", Samples: len(s.lat),
			Reportable: reportable(len(s.lat), q)})
	}
	add(opWrite, 0.50, "write_p50_ms")
	add(opWrite, 0.99, "write_p99_ms")
	add(opRead, 0.50, "read_p50_ms")
	add(opRead, 0.99, "read_p99_ms")
	add(opXRead, 0.50, "xlineage_p50_ms")
	add(opXRead, 0.90, "xlineage_p90_ms")
	out = append(out, classMetric{Name: "error_ratio", Value: ratio(float64(m.failed), float64(m.attempted)),
		Unit: "ratio", Samples: m.attempted, Reportable: true})
	return out
}

// printReport writes the human-readable report: run context, every
// end-to-end metric with unit and sample count (traced run's values
// beside the untraced ones), per-class latencies, the max-rate probes,
// and for a traced run the layer table and per-layer metrics.
func printReport(w io.Writer, ctx runContext, plain, tr *measurement) {
	cj, _ := json.Marshal(ctx)
	fmt.Fprintf(w, "context %s\n", cj)
	all := func(m *measurement) map[string]metric {
		e := m.endToEnd()
		for k, v := range m.reported() {
			e[k] = v
		}
		return e
	}
	pe := all(plain)
	var te map[string]metric
	if tr != nil {
		te = all(tr)
	}
	nFixed := len(plain.fixed.samples)
	samples := map[string]int{"setup_s": len(plain.setups), "max_rate_ops_s": len(plain.probes),
		"server_cpu_ref_per_op": nFixed, "server_cpu_ms_per_op": nFixed, "ref_task_ms": len(plain.refMs),
		"rss_mb": len(plain.rssMB), "rss_peak_mb": 1, "disk_bytes_per_doc_byte": 1}
	for _, k := range []string{"op_p50_ms", "op_p90_ms", "op_p99_ms"} {
		samples[k] = nFixed - plain.fixed.stats()[opXRead].n
	}
	fmt.Fprintf(w, "host steal during the fixed phase: %.1f%% (the latency rows move with it)\n", 100*ctx.HostSteal)
	fmt.Fprintf(w, "%-26s %-6s %14s %14s %8s\n", "end-to-end", "unit", "untraced", "traced", "samples")
	for _, k := range e2eOrder {
		t := "-"
		if te != nil {
			t = fmt.Sprintf("%.4f", te[k].Value)
		}
		fmt.Fprintf(w, "%-26s %-6s %14.4f %14s %8d\n", k, pe[k].Unit, pe[k].Value, t, samples[k])
	}
	var tc map[string]classMetric
	if tr != nil {
		tc = map[string]classMetric{}
		for _, c := range classTable(tr) {
			tc[c.Name] = c
		}
	}
	for _, c := range classTable(plain) {
		t := "-"
		if x, ok := tc[c.Name]; ok {
			t = fmt.Sprintf("%.4f", x.Value)
		}
		note := ""
		if !c.Reportable {
			note = "  (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "%-26s %-6s %14.4f %14s %8d%s\n", c.Name, c.Unit, c.Value, t, c.Samples, note)
	}
	printProbes(w, "untraced", plain)
	if tr == nil {
		return
	}
	printProbes(w, "traced", tr)
	fmt.Fprintf(w, "%-28s %12s  %s\n", "layer (fixed phase)", "us/op", "how")
	for _, r := range tr.layerRows {
		fmt.Fprintf(w, "%-28s %12.1f  %s\n", r.layer, r.usOp, r.note)
	}
	names := make([]string, 0, len(tr.layers))
	for k := range tr.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-32s %-6s %16.4f\n", k, tr.layers[k].Unit, tr.layers[k].Value)
	}
}

func printProbes(w io.Writer, label string, m *measurement) {
	for i, p := range m.probes {
		verdict := "pass"
		if !p.pass {
			verdict = "fail: " + p.why
		}
		fmt.Fprintf(w, "max-rate probe %s %d: offered %.0f ops/s, achieved %.0f ops/s, %s\n", label, i, p.offered, p.achieved, verdict)
	}
	if m.wrong > 0 || len(m.lost) > 0 {
		fmt.Fprintf(w, "%s: %d wrong answers, %d acknowledged writes lost %v\n", label, m.wrong, len(m.lost), head(m.lost, 5))
		for _, ph := range m.allPhases() {
			if e := ph.firstError(); e != "" {
				fmt.Fprintf(w, "  first error in phase %s: %s\n", ph.name, e)
				break
			}
		}
	}
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
