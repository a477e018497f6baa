// pixels-server runs the PixelsDB Query Server: the REST API that
// Pixels-Rover clients talk to (translate questions, submit queries at a
// service level, poll status/results, read the cost-visibility report).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	pixelsdb "repro"
	"repro/internal/admission"
	"repro/internal/billing"
)

// parseTier resolves a tier name in a flag like
// "immediate=4,relaxed=4,best=2" (accepting the short aliases imm/rel/best).
func parseTier(name string) (billing.Level, error) {
	switch strings.ToLower(name) {
	case "imm":
		return billing.Immediate, nil
	case "rel":
		return billing.Relaxed, nil
	case "best", "be":
		return billing.BestEffort, nil
	}
	return billing.ParseLevel(name)
}

// parseTierInts parses "tier=n,tier=n" flags (empty string = nil map,
// meaning built-in defaults).
func parseTierInts(flagName, s string) map[billing.Level]int {
	if s == "" {
		return nil
	}
	out := map[billing.Level]int{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-%s: want tier=n[,tier=n...], got %q", flagName, part)
		}
		lev, err := parseTier(k)
		if err != nil {
			log.Fatalf("-%s: %v", flagName, err)
		}
		n := 0
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < 0 {
			log.Fatalf("-%s: bad count %q for tier %s", flagName, v, k)
		}
		out[lev] = n
	}
	return out
}

// parseTierDurations parses "tier=dur,tier=dur" flags.
func parseTierDurations(flagName, s string) map[billing.Level]time.Duration {
	if s == "" {
		return nil
	}
	out := map[billing.Level]time.Duration{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-%s: want tier=duration[,tier=duration...], got %q", flagName, part)
		}
		lev, err := parseTier(k)
		if err != nil {
			log.Fatalf("-%s: %v", flagName, err)
		}
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			log.Fatalf("-%s: bad duration %q for tier %s", flagName, v, k)
		}
		out[lev] = d
	}
	return out
}

func main() {
	var (
		addr     = flag.String("addr", ":8866", "listen address")
		dataDir  = flag.String("data", "", "data directory (empty = in-memory)")
		database = flag.String("db", "tpch", "default database")
		sf       = flag.Float64("sf", 0.01, "sample-data scale factor (0 = don't load)")
		token    = flag.String("token", "", "require this bearer token")
		grace    = flag.Duration("grace", 5*time.Minute, "relaxed grace period")
		vms      = flag.Int("vms", 2, "initial warm VMs")
		scaleInt = flag.Duration("autoscale", 15*time.Second, "autoscaler interval (0 = off)")
		par      = flag.Int("parallelism", 0, "VM-side intra-query workers incl. merge-side joins/top-N (0 = one per CPU, 1 = serial)")
		cacheMB  = flag.Int("cache-mb", 0, "object-store read cache size in MiB (0 = off)")
		readAh   = flag.Int("readahead", 0, "read-ahead depth in blocks (0 = default, negative = off)")
		scanPf   = flag.Int("scan-prefetch", 0, "row groups a draining scan decodes ahead (0 = default, negative = synchronous)")
		scanBud  = flag.Int("scan-budget", 0, "process-wide cap on concurrent pipeline decode workers (0 = one per CPU, negative = unlimited)")
		parBud   = flag.Int("par-budget", 0, "process-wide cap on extra intra-query parallel workers across concurrent queries (0 = one per CPU, negative = unlimited)")
		vecOn    = flag.Bool("vec", true, "vectorized expression kernels (selection-vector filters + selection-aware decode); false = interpreted evaluation")
		cfExec   = flag.String("cf-exec", "inprocess", "CF worker execution: inprocess (in-process invoker) or process (one pixels-worker OS process per task, store-based shuffle; requires -data)")
		cfWorker = flag.String("cf-worker", "pixels-worker", "worker command for -cf-exec=process")
		planCh   = flag.Bool("plan-cache", false, "cache bound optimized plans keyed on normalized SQL (repeat-traffic fast path, level 1)")
		resCh    = flag.Int("result-cache-mb", 0, "result cache budget in MiB: serve repeat queries from cached rows, billing zero bytes scanned (0 = off)")
		traceOn  = flag.Bool("trace", false, "per-query span tracing: GET /v1/query/{id}/trace and pixels-cli trace (results and bills identical either way)")
		metrics  = flag.Bool("metrics", true, "Prometheus text metrics at GET /metrics")
		slowMs   = flag.Int64("slow-query-ms", 0, "log queries whose submit-to-finish time is at least this many milliseconds (0 = off)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		admOn       = flag.Bool("admission", true, "service-level admission control: per-tier bounded queues, EDF dispatch, load shedding (false = direct submit)")
		admSlots    = flag.String("adm-slots", "", "per-tier concurrency slots, e.g. immediate=4,relaxed=4,best=2 (empty = defaults)")
		admQueue    = flag.String("adm-queue", "", "per-tier queue caps, e.g. immediate=64,relaxed=128,best=8 (empty = defaults)")
		admMaxWait  = flag.String("adm-maxwait", "", "per-tier max queue wait before shedding, e.g. immediate=2s,relaxed=60s,best=10s (empty = defaults)")
		admDeadline = flag.String("adm-deadline", "", "per-tier default completion deadlines for EDF, e.g. immediate=10s,relaxed=2m,best=10m (empty = defaults)")
		admPriority = flag.String("adm-priority", admission.PriorityStrict, "cross-tier dispatch priority: strict or weighted")
		admScaleInt = flag.Duration("adm-autoscale", 0, "autoscale the admission slot pool at this interval (0 = fixed slots)")
	)
	flag.Parse()

	opts := pixelsdb.Options{
		DataDir:            *dataDir,
		InitialVMs:         *vms,
		GracePeriod:        *grace,
		AutoscaleInterval:  *scaleInt,
		Parallelism:        *par,
		CacheSize:          int64(*cacheMB) << 20,
		CacheReadAhead:     *readAh,
		ScanPrefetch:       *scanPf,
		ScanBudget:         *scanBud,
		ParallelBudget:     *parBud,
		NoVectorize:        !*vecOn,
		CFExecution:        *cfExec,
		CFWorkerCmd:        []string{*cfWorker},
		PlanCache:          *planCh,
		ResultCacheMB:      *resCh,
		Tracing:            *traceOn,
		Metrics:            *metrics,
		SlowQueryThreshold: time.Duration(*slowMs) * time.Millisecond,
		Pprof:              *pprofOn,
	}
	if *admOn {
		opts.Admission = &admission.Config{
			Slots:    parseTierInts("adm-slots", *admSlots),
			QueueCap: parseTierInts("adm-queue", *admQueue),
			MaxWait:  parseTierDurations("adm-maxwait", *admMaxWait),
			Deadline: parseTierDurations("adm-deadline", *admDeadline),
			Priority: *admPriority,
		}
		opts.AdmissionAutoscaleInterval = *admScaleInt
	}
	db, err := pixelsdb.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if *sf > 0 && !db.Engine().Catalog().HasDatabase(*database) {
		log.Printf("loading sample data into %q at SF %.3f ...", *database, *sf)
		if err := db.LoadSampleData(*database, *sf); err != nil {
			log.Fatal(err)
		}
	}

	p := db.PriceBook()
	fmt.Printf("PixelsDB query server on %s (db=%s)\n", *addr, *database)
	if *cacheMB > 0 {
		fmt.Printf("object-store read cache: %d MiB, read-ahead %d blocks\n", *cacheMB, *readAh)
	}
	if *planCh || *resCh > 0 {
		fmt.Printf("repeat-traffic fast path: plan cache %v, result cache %d MiB\n", *planCh, *resCh)
	}
	if *cfExec == "process" {
		fmt.Printf("CF execution: one %q process per worker task, store-based shuffle\n", *cfWorker)
	}
	if *admOn {
		snap := db.Admission().Snapshot()
		fmt.Printf("admission control: %d slots, %s priority (API: /v1, deprecated alias: /api)\n",
			snap.TotalSlots, *admPriority)
	}
	if *traceOn {
		fmt.Println("tracing: per-query span trees at GET /v1/query/{id}/trace")
	}
	if *metrics {
		fmt.Println("metrics: Prometheus text at GET /metrics")
	}
	fmt.Printf("service levels: immediate $%.2f/TB | relaxed $%.2f/TB (grace %s) | best-of-effort $%.2f/TB\n",
		p.ScanPricePerTBAt(pixelsdb.Immediate), p.ScanPricePerTBAt(pixelsdb.Relaxed),
		*grace, p.ScanPricePerTBAt(pixelsdb.BestEffort))
	log.Fatal(db.Serve(*addr, *database, *token))
}
