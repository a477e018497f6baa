package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/billing"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	n          int       // samples behind a percentile or mean; 0 for counts
	omitted    bool      // too few samples: printed as 0 and marked n/a
	windowed   bool      // the median of parts, one per window of the run
	parts      []float64 // per-window values of a windowed metric
}

// minBeyond is how many samples must rank above a percentile for it to be
// reported: a thinner tail is one or two unlucky requests.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile of xs: the value of rank
// ceil(p/100·n) in sorted order. ok is false, and the percentile omitted,
// when fewer than minBeyond samples rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// windows is how many consecutive parts of a run its end-to-end figures
// are computed on; the reported figure is their median, so a slow spell of
// the shared host in one part does not move it.
const windows = 10

// median is the middle value of xs (the mean of the two middle values
// for an even count); xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// minSamples is the smallest sample with minBeyond values above its p-th
// percentile.
func minSamples(p float64) int {
	n := 1
	for n-int(math.Ceil(p/100*float64(n))) < minBeyond {
		n++
	}
	return n
}

// windowedPct cuts xs, in send order, into as many consecutive groups as
// can each carry the p-th percentile, at most windows of them, and
// returns the median of the groups' percentiles. n is the sample count.
func windowedPct(name, unit string, xs []float64, p float64) metric {
	m := metric{name: name, unit: unit, n: len(xs), windowed: true}
	groups := len(xs) / minSamples(p)
	if groups > windows {
		groups = windows
	}
	if groups == 0 {
		m.omitted = true
		return m
	}
	for g := 0; g < groups; g++ {
		v, _ := percentile(xs[g*len(xs)/groups:(g+1)*len(xs)/groups], p)
		m.parts = append(m.parts, v)
	}
	m.value = median(append([]float64(nil), m.parts...))
	return m
}

func pct(name, unit string, xs []float64, p float64) metric {
	v, ok := percentile(xs, p)
	return metric{name: name, unit: unit, value: v, n: len(xs), omitted: !ok}
}

func mean(name, unit string, xs []float64) metric {
	m := metric{name: name, unit: unit, n: len(xs), omitted: len(xs) == 0}
	for _, x := range xs {
		m.value += x
	}
	m.value = frac(m.value, float64(len(xs)))
	return m
}

func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// tally is what a run attempted and how it went.
type tally struct {
	reads, failedReads   int
	writes, failedWrites int
	wrong                int // wrong or stale results
}

func (t tally) attempted() int { return t.reads + t.writes }
func (t tally) failed() int    { return t.failedReads + t.failedWrites }

func countRun(r *runResult) tally {
	t := tally{reads: len(r.samples), writes: len(r.inserts)}
	for _, s := range r.samples {
		if s.failure() != "" {
			t.failedReads++
		}
		if s.verdict != "" {
			t.wrong++
		}
	}
	for _, w := range r.inserts {
		if w.err != nil {
			t.failedWrites++
		}
	}
	return t
}

// billsOf returns the ledger bills of a run's queries.
func billsOf(d *deployment, r *runResult) []billing.QueryBill {
	ids := make(map[string]bool, len(r.samples))
	for _, s := range r.samples {
		if s.id != "" {
			ids[s.id] = true
		}
	}
	var out []billing.QueryBill
	for _, b := range d.db.Ledger().All() {
		if ids[b.QueryID] {
			out = append(out, b)
		}
	}
	return out
}

// latencies returns the end-to-end latencies (ms) of a run's successful
// reads in send order, optionally of one service level only.
func latencies(r *runResult, level *billing.Level) []float64 {
	ok := make([]*sample, 0, len(r.samples))
	for _, s := range r.samples {
		if s.failure() == "" && (level == nil || s.req.level == *level) {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].due.Before(ok[j].due) })
	out := make([]float64, len(ok))
	for i, s := range ok {
		out[i] = ms(s.latency())
	}
	return out
}

// perWindow splits the run's length into windows equal spans and returns
// f of each: the successful reads sent in it and the heap samples taken
// in it.
func perWindow(r *runResult, length time.Duration, f func(reads int, heap []heapSample) float64) []float64 {
	span := length / windows
	reads := make([]int, windows)
	heaps := make([][]heapSample, windows)
	slot := func(t time.Time) int {
		w := int(t.Sub(r.start) / span)
		if w < 0 || w >= windows {
			return -1
		}
		return w
	}
	for _, s := range r.samples {
		if w := slot(s.due); w >= 0 && s.failure() == "" {
			reads[w]++
		}
	}
	for _, h := range r.heap {
		if w := slot(h.at); w >= 0 {
			heaps[w] = append(heaps[w], h)
		}
	}
	out := make([]float64, windows)
	for w := range out {
		out[w] = f(reads[w], heaps[w])
	}
	return out
}

// endToEnd is what a user sees of a run of the given length: throughput,
// latency, price, cost and memory. setupS is the median set-up time.
// Throughput, latency and memory are medians over the run's windows.
func endToEnd(d *deployment, r *runResult, length time.Duration, setupS float64) []metric {
	t := countRun(r)
	bills := billsOf(d, r)
	var price, cost float64
	for _, b := range bills {
		price += b.ListPrice
		cost += b.ResourceCost
	}
	lat := latencies(r, nil)
	// Closed loops report the median of the windows' throughput; an open
	// loop's throughput is its fixed arrival schedule, whose count per
	// window varies by chance, so it reports the whole run's.
	qps := perWindow(r, length, func(reads int, _ []heapSample) float64 {
		return float64(reads) / (length / windows).Seconds()
	})
	if r.lagsMs != nil {
		qps = []float64{float64(t.reads-t.failedReads) / length.Seconds()}
	}
	// mem_peak_mb is the peak live heap: the most the program retained,
	// as marked by its garbage collector.
	mem := perWindow(r, length, func(_ int, heap []heapSample) float64 {
		var peak uint64
		for _, h := range heap {
			if h.bytes > peak {
				peak = h.bytes
			}
		}
		return float64(peak) / (1 << 20)
	})
	return []metric{
		{name: "setup_s", unit: "s", value: setupS},
		{name: "qps", unit: "1/s", value: median(append([]float64(nil), qps...)), n: t.reads, windowed: true, parts: qps},
		windowedPct("latency_p50_ms", "ms", lat, 50),
		windowedPct("latency_p90_ms", "ms", lat, 90),
		{name: "price_usd_per_kq", unit: "usd", value: 1000 * frac(price, float64(t.reads))},
		{name: "cost_usd_per_kq", unit: "usd", value: 1000 * frac(cost, float64(t.reads))},
		{name: "mem_peak_mb", unit: "MiB", value: median(append([]float64(nil), mem...)), windowed: true, parts: mem},
	}
}

// serviceMetrics are the user-visible figures that exist only on some
// workloads — per-tier latency, write latency, the error share and the
// open loop's lateness — reported with the per-layer metrics.
func serviceMetrics(r *runResult) []metric {
	t := countRun(r)
	imm, rel, be := billing.Immediate, billing.Relaxed, billing.BestEffort
	var writes, lags []float64
	for _, w := range r.inserts {
		if w.err == nil {
			writes = append(writes, ms(w.ack.Sub(w.started)))
		}
	}
	lags = r.lagsMs
	return []metric{
		{name: "error_frac", unit: "ratio", value: frac(float64(t.failed()), float64(t.attempted()))},
		windowedPct("latency_p95_ms", "ms", latencies(r, nil), 95),
		pct("immediate_p50_ms", "ms", latencies(r, &imm), 50),
		pct("immediate_p95_ms", "ms", latencies(r, &imm), 95),
		pct("relaxed_p95_ms", "ms", latencies(r, &rel), 95),
		pct("best_effort_p95_ms", "ms", latencies(r, &be), 95),
		pct("write_p50_ms", "ms", writes, 50),
		pct("loadgen.lag_p99_ms", "ms", lags, 99),
	}
}

// coreMetrics split the ledger's pending and exec times by tier and path.
func coreMetrics(bills []billing.QueryBill, d *deployment, r *runResult) []metric {
	pending := map[billing.Level][]float64{}
	var execVM, execCF, queueWait []float64
	var cf, immCF, imm float64
	var scanned int64
	for _, b := range bills {
		pending[b.Level] = append(pending[b.Level], ms(b.PendingTime()))
		scanned += b.BytesScanned
		switch {
		case b.CacheHit:
		case b.UsedCF:
			execCF = append(execCF, ms(b.ExecTime()))
		default:
			execVM = append(execVM, ms(b.ExecTime()))
		}
		if b.UsedCF {
			cf++
		}
		if b.Level == billing.Immediate {
			imm++
			if b.UsedCF {
				immCF++
			}
		}
	}
	for _, s := range r.samples {
		if t, ok := d.db.Admission().Get(s.id); ok && s.id != "" {
			queueWait = append(queueWait, ms(t.QueueWait()))
		}
	}
	var chunks int64
	for _, s := range r.samples {
		chunks += s.chunksSkipped
	}
	return []metric{
		pct("admission.queue_wait_p95_ms", "ms", queueWait, 95),
		pct("core.pending_p95_ms.immediate", "ms", pending[billing.Immediate], 95),
		pct("core.pending_p95_ms.relaxed", "ms", pending[billing.Relaxed], 95),
		pct("core.pending_p95_ms.best-of-effort", "ms", pending[billing.BestEffort], 95),
		pct("core.exec_vm_p50_ms", "ms", execVM, 50),
		pct("core.exec_cf_p50_ms", "ms", execCF, 50),
		{name: "core.cf_frac", unit: "ratio", value: frac(cf, float64(len(bills)))},
		{name: "core.cf_frac.immediate", unit: "ratio", value: frac(immCF, imm)},
		{name: "engine.bytes_scanned_per_query", unit: "B", value: frac(float64(scanned), float64(len(r.samples)))},
		{name: "engine.chunks_skipped_per_query", unit: "count", value: frac(float64(chunks), float64(len(r.samples)))},
		{name: "vmsim.slot_busy_frac", unit: "ratio", value: r.vmBusy},
	}
}

// spanMetrics come from the traced run's spans and the replay.
func spanMetrics(traced *runResult, rec *recorder, rs *replayStats) []metric {
	var respBytes, results float64
	for _, s := range traced.samples {
		if s.respBytes > 0 {
			respBytes += float64(s.respBytes)
			results++
		}
	}
	out := []metric{
		pct("server.submit_p50_us", "us", durs(rec.named("submit"), us), 50),
		pct("server.result_p50_us", "us", durs(rec.named("result"), us), 50),
		{name: "server.result_kb_per_query", unit: "KiB", value: frac(respBytes, results) / 1024},
		pct("nl2sql.translate_p50_us", "us", durs(rec.named("nl2sql.translate"), us), 50),
		mean("qcache.plan_hit_us", "us", durs(rs.planHits, us)),
		mean("qcache.plan_miss_us", "us", durs(rs.planMiss, us)),
		pct("sql.parse_p50_us", "us", durs(rec.named("sql.parse"), us), 50),
		pct("plan.plan_p50_us", "us", durs(rec.named("plan.plan"), us), 50),
		mean("engine.cf_split_us", "us", durs(rec.named("engine.cf_split"), us)),
		pct("engine.cf_task_p50_ms", "ms", durs(rec.named("engine.cf_task"), ms), 50),
		pct("engine.cf_merge_p50_ms", "ms", durs(rec.named("engine.cf_merge"), ms), 50),
		{name: "engine.bytes_intermediate_per_cf_query", unit: "B", value: frac(float64(rs.bytesIntermediate), float64(rs.cfRuns))},
		{name: "engine.row_groups_pruned_frac", unit: "ratio", value: frac(float64(rs.rgPruned), float64(rs.rgRead+rs.rgPruned))},
		{name: "objstore.get_ms_per_query", unit: "ms", value: frac(ms(rs.storeTimeInVM), float64(rs.vmRuns))},
		{name: "accounting.unexplained_frac", unit: "ratio", value: unexplainedFrac(rec.spans)},
	}
	for _, k := range templateKinds {
		out = append(out, mean("engine.run_vm_ms."+k, "ms", durs(rs.runVMByKind[k], ms)))
	}
	return out
}
