package main

import (
	"runtime/metrics"

	"repro/internal/admission"
	"repro/internal/cfsim"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/qcache"
)

// counters is a reading of the program's public counters; a run's
// per-layer counts are the difference of two readings.
type counters struct {
	store   objstore.Usage
	cache   cache.Stats
	qc      qcache.Snapshot
	adm     admission.Snapshot
	cf      cfsim.Usage
	allocs  uint64  // heap objects allocated by the whole process
	gcCPU   float64 // CPU seconds spent in the GC
	idleCPU float64 // CPU seconds no goroutine ran
	allCPU  float64 // CPU seconds available (GOMAXPROCS × wall time)
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCounters(d *deployment) counters {
	c := counters{
		store: d.db.StoreUsage(),
		qc:    d.db.QueryCache().Snapshot(),
		adm:   d.db.Admission().Snapshot(),
		cf:    d.db.CFService().Usage(),
	}
	c.cache, _ = d.db.CacheStats()
	rs := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		rs[i].Name = n
	}
	metrics.Read(rs)
	c.allocs = rs[0].Value.Uint64()
	c.gcCPU = rs[1].Value.Float64()
	c.idleCPU = rs[2].Value.Float64()
	c.allCPU = rs[3].Value.Float64()
	return c
}

// admissionTotals sums the per-tier admission counters.
func admissionTotals(s admission.Snapshot) (submitted, shed int64, maxDepth int) {
	for _, t := range s.Tiers {
		submitted += t.Submitted
		shed += t.Shed
		if t.MaxQueueDepth > maxDepth {
			maxDepth = t.MaxQueueDepth
		}
	}
	return submitted, shed, maxDepth
}

// frac is num/den, or 0 when there is nothing to divide by.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the counter-based per-layer metrics of a run from
// the readings before and after it. reads is the number of read requests
// attempted, the base of every per-query figure; bytesScanned is the
// ledger's billed bytes for those queries.
func counterMetrics(b, a counters, reads int, bytesScanned int64) []metric {
	q := float64(reads)
	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	planHits := float64(a.qc.Plan.Hits - b.qc.Plan.Hits)
	planMisses := float64(a.qc.Plan.Misses - b.qc.Plan.Misses)
	resHits := float64(a.qc.Result.Hits - b.qc.Result.Hits)
	resMisses := float64(a.qc.Result.Misses - b.qc.Result.Misses)
	subB, shedB, _ := admissionTotals(b.adm)
	subA, shedA, depth := admissionTotals(a.adm)
	return []metric{
		{name: "qcache.plan_hit_frac", unit: "ratio", value: frac(planHits, planHits+planMisses)},
		{name: "qcache.result_hit_frac", unit: "ratio", value: frac(resHits, resHits+resMisses)},
		{name: "qcache.invalidations", unit: "count", value: float64(a.qc.Plan.Invalidations - b.qc.Plan.Invalidations)},
		{name: "admission.shed_frac", unit: "ratio", value: frac(float64(shedA-shedB), float64(subA-subB))},
		{name: "admission.max_queue_depth", unit: "count", value: float64(depth)},
		{name: "objstore.gets_per_query", unit: "count", value: frac(float64(a.store.Gets-b.store.Gets), q)},
		{name: "objstore.puts_per_query", unit: "count", value: frac(float64(a.store.Puts-b.store.Puts), q)},
		{name: "objstore.read_amplification", unit: "ratio", value: frac(float64(a.store.BytesRead-b.store.BytesRead), float64(bytesScanned))},
		{name: "cache.hit_frac", unit: "ratio", value: frac(hits, hits+misses)},
		{name: "cache.prefetch_wasted_frac", unit: "ratio", value: frac(float64(a.cache.PrefetchWasted-b.cache.PrefetchWasted), float64(a.cache.PrefetchIssued-b.cache.PrefetchIssued))},
		{name: "cache.evictions_per_query", unit: "count", value: frac(float64(a.cache.Evictions-b.cache.Evictions), q)},
		{name: "cfsim.invocations_per_query", unit: "count", value: frac(float64(a.cf.Invocations-b.cf.Invocations), q)},
		{name: "cfsim.cold_starts", unit: "count", value: float64(a.cf.ColdStarts - b.cf.ColdStarts)},
		{name: "cfsim.gb_s_per_query", unit: "GB-s", value: frac(a.cf.GBSeconds-b.cf.GBSeconds, q)},
		{name: "go.allocs_per_query", unit: "count", value: frac(float64(a.allocs-b.allocs), q)},
		{name: "go.gc_cpu_frac", unit: "ratio", value: frac(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU)},
		{name: "go.cpu_busy_frac", unit: "ratio", value: 1 - frac(a.idleCPU-b.idleCPU, a.allCPU-b.allCPU)},
	}
}
