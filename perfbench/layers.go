package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/prov"
)

// layerRow is one row of the layer table: where the mean op's time
// went, by layer, in µs per op of the fixed-rate phase.
type layerRow struct {
	layer string
	usOp  float64
	note  string
}

// computeLayers derives the per-layer metrics of the fixed-rate phase
// from the client's samples, the host's spans and its counter marks.
// HTTP and Put spans are joined to the phase's requests by trace ID;
// Lineage, CrossDocLineage, ReadVersion and WAL spans carry none and
// count when they start inside the window between the two marks.
func computeLayers(m *measurement, d *traceDump, bodies [][]byte) (map[string]metric, []layerRow) {
	var start, end mark
	for _, mk := range d.Marks {
		switch mk.Name {
		case "start":
			start = mk
		case "end":
			end = mk
		}
	}
	inWindow := func(s span) bool { return s.Start >= start.At && s.Start < end.At }
	prefix := m.fixed.name + "-"

	httpByTrace := map[string]span{}
	var puts, lineages, xlineages, fsyncs []float64 // µs
	var putBusy, linBusy, xBusy, rvBusy, fsyncBusy time.Duration
	var rvCalls, storeErrs, walWrites int
	var walBytes int64
	for _, s := range d.Spans {
		dur := time.Duration(s.Dur)
		switch s.Kind {
		case spHTTP:
			if strings.HasPrefix(s.Trace, prefix) {
				httpByTrace[s.Trace] = s
			}
		case spPut:
			if strings.HasPrefix(s.Trace, prefix) {
				puts = append(puts, us(dur))
				putBusy += dur
				if s.Err {
					storeErrs++
				}
			}
		case spLineage, spXLineage, spReadVersion:
			if !inWindow(s) {
				continue
			}
			if s.Err {
				storeErrs++
			}
			switch s.Kind {
			case spLineage:
				lineages = append(lineages, us(dur))
				linBusy += dur
			case spXLineage:
				xlineages = append(xlineages, us(dur))
				xBusy += dur
			case spReadVersion:
				rvCalls++
				rvBusy += dur
			}
		case spWALWrite:
			if inWindow(s) {
				walWrites++
				walBytes += s.N
			}
		case spWALSync:
			if inWindow(s) {
				fsyncs = append(fsyncs, us(dur))
				fsyncBusy += dur
			}
		}
	}

	// Client side, joined per request.
	var netUs, lags []float64
	var httpBusy, readHTTP, writeHTTP time.Duration
	var reads, writes, non2xx, shed int
	var userBytes int64
	var latSum, lagSum time.Duration
	for i, s := range m.fixed.samples {
		latSum += s.latency()
		lagSum += s.sendLag()
		lags = append(lags, ms(s.sendLag()))
		o := &m.fixed.ops[i]
		if o.class == opWrite {
			writes++
			userBytes += int64(len(o.body))
		} else {
			reads++
		}
		h, ok := httpByTrace[prefix+strconv.Itoa(i)]
		if !ok {
			continue
		}
		dur := time.Duration(h.Dur)
		httpBusy += dur
		if o.class == opWrite {
			writeHTTP += dur
		} else {
			readHTTP += dur
		}
		if h.N < 200 || h.N >= 300 {
			non2xx++
		}
		if h.N == 429 {
			shed++
		}
		netUs = append(netUs, us(s.done-s.sent-dur))
	}
	n := float64(len(m.fixed.samples))
	sort.Float64s(lags)
	sort.Float64s(netUs)
	sort.Float64s(puts)
	sort.Float64s(lineages)
	sort.Float64s(xlineages)
	sort.Float64s(fsyncs)

	readStore := linBusy + xBusy + rvBusy
	hits := end.Cache.Hits - start.Cache.Hits
	misses := end.Cache.Misses - start.Cache.Misses
	ops := float64(len(httpByTrace))
	dSyncs := end.WAL.Syncs - start.WAL.Syncs
	dAppends := end.WAL.Appends - start.WAL.Appends
	parseUs, marshalUs := codecCost(bodies)

	layers := map[string]metric{
		"client.send_lag_p99_ms":        {quantile(lags, 0.99), "ms"},
		"net.overhead_p50_us":           {quantile(netUs, 0.5), "us"},
		"provservice.requests":          {ops, "count"},
		"provservice.busy_s":            {httpBusy.Seconds(), "s"},
		"provservice.self_us_per_read":  {perOp(readHTTP-readStore, reads), "us"},
		"provservice.self_us_per_write": {perOp(writeHTTP-putBusy, writes), "us"},
		"provservice.non2xx":            {float64(non2xx), "count"},
		"provservice.shed_429":          {float64(shed), "count"},
		"readcache.hits":                {float64(hits), "count"},
		"readcache.misses":              {float64(misses), "count"},
		"readcache.hit_ratio":           {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"readcache.evictions":           {float64(end.Cache.Evictions - start.Cache.Evictions), "count"},
		"readcache.coalesced":           {float64(end.Cache.Coalesced - start.Cache.Coalesced), "count"},
		"readcache.bypassed":            {float64(end.Cache.Bypassed - start.Cache.Bypassed), "count"},
		"provstore.put_calls":           {float64(len(puts)), "count"},
		"provstore.put_us_p50":          {quantile(puts, 0.5), "us"},
		"provstore.put_busy_s":          {putBusy.Seconds(), "s"},
		"provstore.lineage_calls":       {float64(len(lineages)), "count"},
		"provstore.lineage_us_p50":      {quantile(lineages, 0.5), "us"},
		"provstore.lineage_busy_s":      {linBusy.Seconds(), "s"},
		"provstore.xlineage_calls":      {float64(len(xlineages)), "count"},
		"provstore.xlineage_ms_p50":     {quantile(xlineages, 0.5) / 1000, "ms"},
		"provstore.readversion_calls":   {float64(rvCalls), "count"},
		"provstore.errors":              {float64(storeErrs), "count"},
		"wal.write_calls":               {float64(walWrites), "count"},
		"wal.write_bytes":               {float64(walBytes), "bytes"},
		"wal.fsyncs":                    {float64(len(fsyncs)), "count"},
		"wal.fsync_us_p50":              {quantile(fsyncs, 0.5), "us"},
		"wal.fsync_busy_s":              {fsyncBusy.Seconds(), "s"},
		"wal.records_per_fsync":         {ratio(float64(dAppends), float64(dSyncs)), "ratio"},
		"wal.bytes_per_user_byte":       {ratio(float64(walBytes), float64(userBytes)), "ratio"},
		"wal.snapshots":                 {float64(end.WAL.Snapshots - start.WAL.Snapshots), "count"},
		"wal.segments_removed":          {float64(end.WAL.SegmentsRemoved - start.WAL.SegmentsRemoved), "count"},
		"prov.parse_us_per_kb":          {parseUs, "us"},
		"prov.marshal_us_per_kb":        {marshalUs, "us"},
		"runtime.gc_cycles":             {float64(end.NumGC - start.NumGC), "count"},
		"runtime.gc_pause_s":            {float64(end.PauseNs-start.PauseNs) / 1e9, "s"},
		"runtime.alloc_bytes_per_op":    {ratio(float64(end.Alloc-start.Alloc), ops), "bytes"},
	}

	// The layer table: the mean op's due-time latency split by layer,
	// in µs per op. Inside the handler span, the server's own spans
	// (X-Yprov-Spans) give parse, cache, fill, lock, project, stage and
	// commit; what they do not cover is the unattributed remainder.
	var netSum float64
	for _, x := range netUs {
		netSum += x
	}
	sp := map[string]float64{}
	for _, s := range m.fixed.samples {
		addSpans(s.spans, sp)
	}
	covered := sp["parse"] + sp["cache"] + sp["lock"] + sp["project"] + sp["stage"] + sp["commit"]
	rest := (us(httpBusy) - covered) / n
	rows := []layerRow{
		{"client", us(lagSum) / n, "send lag: due -> sent"},
		{"net", netSum / n, "client round trip - handler span (loopback, net/http)"},
		{"prov codec", sp["parse"] / n, "PROV-JSON parse of PUT bodies"},
		{"readcache", (sp["cache"] - sp["fill"]) / n, "cache lookup and single-flight wait"},
		{"provstore read", sp["fill"] / n, "cache fill: traversal and encode"},
		{"provstore write", (sp["lock"] + sp["project"] + sp["stage"]) / n, "shard lock, projection, staging"},
		{"wal", sp["commit"] / n, "group-commit wait (fsync)"},
		{"unattributed", rest, "handler span - server spans: middleware, routing, response write, GC"},
	}
	layers["unattributed.us_per_op"] = metric{rest, "us"}
	return layers, rows
}

// addSpans adds the durations of an X-Yprov-Spans header
// ("name=1.234ms,...") to sum, in µs.
func addSpans(h string, sum map[string]float64) {
	for _, part := range strings.Split(h, ",") {
		name, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64); err == nil {
			sum[name] += f * 1000
		}
	}
}

// codecCost times prov.ParseJSON and MarshalJSON over the workload's
// own request bodies, in µs per KB of PROV-JSON.
func codecCost(bodies [][]byte) (parseUs, marshalUs float64) {
	if len(bodies) == 0 {
		return 0, 0
	}
	var kb float64
	for _, b := range bodies {
		kb += float64(len(b)) / 1024
	}
	docs := make([]*prov.Document, len(bodies))
	var parse, marshal []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for i, b := range bodies {
			d, err := prov.ParseJSON(b)
			if err != nil {
				return 0, 0
			}
			docs[i] = d
		}
		parse = append(parse, us(time.Since(t))/kb)
		t = time.Now()
		for _, d := range docs {
			if _, err := d.MarshalJSON(); err != nil {
				return 0, 0
			}
		}
		marshal = append(marshal, us(time.Since(t))/kb)
	}
	return median(parse), median(marshal)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
