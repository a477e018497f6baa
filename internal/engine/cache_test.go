package engine

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/sql"
)

// runScanAgg plans and runs the canonical scan+filter+agg shape at a
// given VM-side width.
func runScanAgg(t *testing.T, e *Engine, parallelism int) *Result {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val), AVG(f_val) FROM fact WHERE f_val > 100 GROUP BY f_cat ORDER BY f_cat")
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanParallel(ctx, node, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRows(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if !a.Rows[i][c].Equal(b.Rows[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestCacheWarmScanFewerStoreReads is the acceptance shape of the cache
// layer: a warm rerun of the same plan issues strictly fewer (here: zero)
// physical store requests than the cold run, returns identical rows, and
// bills identical bytes-scanned — with or without the cache at all.
func TestCacheWarmScanFewerStoreReads(t *testing.T) {
	met := objstore.NewMetered(objstore.NewMemory())
	cs := cache.New(met, cache.Config{})
	met.AttachCache(cs)
	cached := newPartitionedEngineOn(t, cs, 4, 8192)
	plain := newPartitionedEngine(t, 4, 8192) // identical data, no cache

	base := runScanAgg(t, plain, 1)

	met.Reset()
	cold := runScanAgg(t, cached, 1)
	cs.WaitReadAhead() // let read-ahead settle before snapshotting
	coldUse := met.Usage()

	warm := runScanAgg(t, cached, 1)
	cs.WaitReadAhead()
	warmUse := met.Usage().Sub(coldUse)

	if !sameRows(base, cold) || !sameRows(base, warm) {
		t.Fatalf("cached results diverge from uncached baseline")
	}
	if base.Stats.BytesScanned != cold.Stats.BytesScanned ||
		base.Stats.BytesScanned != warm.Stats.BytesScanned {
		t.Fatalf("billed bytes-scanned differ: uncached %d, cold %d, warm %d",
			base.Stats.BytesScanned, cold.Stats.BytesScanned, warm.Stats.BytesScanned)
	}
	if coldUse.Gets == 0 {
		t.Fatalf("cold run issued no store requests — metering broken")
	}
	if warmUse.Gets != 0 || warmUse.Heads != 0 {
		t.Fatalf("warm run still touched the store: %d gets, %d heads (cold: %d gets)",
			warmUse.Gets, warmUse.Heads, coldUse.Gets)
	}
	if cold.Stats.CacheMisses == 0 {
		t.Fatalf("cold run reported no cache misses: %+v", cold.Stats)
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run cache stats = %d hits / %d misses, want all hits",
			warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	if warmUse.CacheHits == 0 {
		t.Fatalf("metered usage missed the attached cache's hits: %+v", warmUse)
	}
	// The uncached engine reports no cache activity at all.
	if base.Stats.CacheHits != 0 || base.Stats.CacheMisses != 0 {
		t.Fatalf("uncached engine reported cache stats: %+v", base.Stats)
	}
}

// TestCacheParallelScan runs the parallel VM path over a shared cache:
// serial and parallel execution must agree bit-for-bit on rows and billed
// bytes, cold and warm. Run with -race: workers of one query contend on
// the same cache shards and single-flight calls.
func TestCacheParallelScan(t *testing.T) {
	cs := cache.New(objstore.NewMemory(), cache.Config{})
	e := newPartitionedEngineOn(t, cs, 8, 4096)

	serial := runScanAgg(t, e, 1)   // cold
	parallel := runScanAgg(t, e, 4) // warm-ish, partitioned across workers
	again := runScanAgg(t, e, 4)    // fully warm

	if !sameRows(serial, parallel) || !sameRows(serial, again) {
		t.Fatalf("parallel cached run diverges from serial")
	}
	if serial.Stats.BytesScanned != parallel.Stats.BytesScanned ||
		serial.Stats.BytesScanned != again.Stats.BytesScanned {
		t.Fatalf("billed bytes differ: serial %d, parallel %d, warm %d",
			serial.Stats.BytesScanned, parallel.Stats.BytesScanned, again.Stats.BytesScanned)
	}
	if again.Stats.CacheHits == 0 {
		t.Fatalf("fully warm parallel run recorded no cache hits")
	}
}

// TestCacheCFIntermediates checks the CF path through the cache: worker
// intermediates written via Put are readable (invalidation correctness)
// and intermediate bytes stay out of the billed scan count.
func TestCacheCFIntermediates(t *testing.T) {
	cs := cache.New(objstore.NewMemory(), cache.Config{})
	e := newPartitionedEngineOn(t, cs, 4, 2048)
	plain := newPartitionedEngine(t, 4, 2048)

	run := func(e *Engine) *Result {
		t.Helper()
		ctx := context.Background()
		stmt, err := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat")
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		split, err := e.SplitForCF(node, "cf-cache-test", 4)
		if err != nil {
			t.Fatal(err)
		}
		var interms []catalog.FileMeta
		for task := range split.Tasks {
			meta, _, err := e.RunWorker(ctx, split, task)
			if err != nil {
				t.Fatal(err)
			}
			interms = append(interms, meta)
		}
		res, err := e.MergeResults(ctx, split, interms)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(plain)
	b := run(e)
	if !sameRows(a, b) || a.Stats.BytesScanned != b.Stats.BytesScanned {
		t.Fatalf("CF path through cache diverges: bytes %d vs %d", a.Stats.BytesScanned, b.Stats.BytesScanned)
	}
	if b.Stats.BytesIntermediate == 0 {
		t.Fatalf("CF run read no intermediates — split did not execute")
	}
}

// TestCacheOverCapacityScanReadAmplification gates the physical bytes a
// serial scan reads through a read cache several times smaller than the
// table. Scan-resistant admission refuses the blocks of a streaming file
// once its shard is full; those reads must fetch only the column chunks
// the query asked for, not whole cache blocks. Cache read-ahead and the
// scan pipeline are off, so the reads arrive in one order and the counts
// are deterministic. Rows and billed bytes match the uncached
// engine — billing is counted reader-side.
func TestCacheOverCapacityScanReadAmplification(t *testing.T) {
	const capacity = 512 << 10
	met := objstore.NewMetered(objstore.NewMemory())
	cs := cache.New(met, cache.Config{Capacity: capacity, BlockSize: 32 << 10, ReadAhead: -1})
	met.AttachCache(cs)
	cached := newPartitionedEngineOn(t, cs, 8, 32768)
	plain := newPartitionedEngine(t, 8, 32768)
	table := met.Usage().BytesWritten
	if table < 3*capacity {
		t.Fatalf("table is %d bytes, want ≥ 3× the %d-byte cache", table, capacity)
	}

	base := runScanAgg(t, plain, 1)
	cs.Flush()
	met.Reset()
	cached.SetScanPrefetch(-1)
	res := runScanAgg(t, cached, 1)
	u := met.Usage()
	cached.SetScanPrefetch(0)
	if !sameRows(base, res) || !sameRows(base, runScanAgg(t, cached, 4)) {
		t.Fatal("over-capacity cached scan diverges from the uncached engine")
	}
	if res.Stats.BytesScanned != base.Stats.BytesScanned {
		t.Fatalf("billed bytes-scanned: cached %d, uncached %d", res.Stats.BytesScanned, base.Stats.BytesScanned)
	}
	// Whole-block fetches for refused blocks read 5.82× the billed bytes
	// (416 gets); exact-range reads bring it to 1.20 (368 gets), the rest
	// being the blocks each file's first reads fetch before the scan is
	// classified streaming.
	const maxAmp = 1.5
	amp := float64(u.BytesRead) / float64(res.Stats.BytesScanned)
	if amp > maxAmp {
		t.Fatalf("store read %d bytes in %d gets for %d billed bytes: amplification %.2f > %.1f",
			u.BytesRead, u.Gets, res.Stats.BytesScanned, amp, maxAmp)
	}
}
