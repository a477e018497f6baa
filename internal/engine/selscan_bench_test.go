package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

// selBench holds the shared selective-scan fixture: a wide table whose
// filter matches cluster into whole row groups, so ~99% of row groups
// contain no match at ~1% selectivity. The predicate is modulo arithmetic,
// which zone maps cannot extract — any row-group skipping must come from
// the scan evaluating the filter before materializing the payload columns.
var selBench struct {
	once sync.Once
	err  error   // first fixture-load failure, reported by every benchmark
	e    *Engine // plain in-memory store
	ce   *Engine // behind the read cache
	cs   *cache.CachingStore
	met  *objstore.Metered // beneath the read cache
}

const (
	selFiles       = 8
	selRowsPerFile = 65536
	selRowGroup    = 2048
)

// loadSelTable loads the selective-scan table into e: a small DICT-coded
// tag column (the predicate), a sequence column, and four payload columns
// (two numeric, two string) that dominate the bytes of every row group.
func loadSelTable(e *Engine) error {
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		`CREATE TABLE sel (s_seq BIGINT NOT NULL, s_tag VARCHAR NOT NULL,
			s_a DOUBLE NOT NULL, s_b BIGINT NOT NULL,
			s_c VARCHAR NOT NULL, s_d VARCHAR NOT NULL)`,
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			return err
		}
	}
	// Payload columns model a realistic wide fact table: pseudo-random
	// integers (PLAIN varints — no run/delta collapse) and ~20-char
	// medium-cardinality strings, so materializing a row group costs real
	// decode work. The s_seq predicate column stays cheap (sequential →
	// DELTA), which is exactly the asymmetry late materialization exploits.
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	for f := 0; f < selFiles; f++ {
		seq := col.NewVector(col.INT64, selRowsPerFile)
		tag := col.NewVector(col.STRING, selRowsPerFile)
		a := col.NewVector(col.FLOAT64, selRowsPerFile)
		bb := col.NewVector(col.INT64, selRowsPerFile)
		c := col.NewVector(col.STRING, selRowsPerFile)
		d := col.NewVector(col.STRING, selRowsPerFile)
		for r := 0; r < selRowsPerFile; r++ {
			i := f*selRowsPerFile + r
			h := int64(uint32(i*2654435761) >> 1) // cheap hash, full range
			seq.Ints[r] = int64(i)
			// Every 100th row group is entirely hits; the rest are misses.
			if (i/selRowGroup)%100 == 0 {
				tag.Strs[r] = "hit"
			} else {
				tag.Strs[r] = "miss"
			}
			a.Floats[r] = float64(h) / 97
			bb.Ints[r] = h * 31
			c.Strs[r] = fmt.Sprintf("%s-%08d-part", words[i%len(words)], h%100000)
			d.Strs[r] = fmt.Sprintf("note %s %s #%06d", words[(i/3)%len(words)], words[(i/7)%len(words)], h%1000000)
		}
		if err := e.LoadBatch("db", "sel", col.NewBatch(seq, tag, a, bb, c, d),
			pixfile.WriterOptions{RowGroupSize: selRowGroup}); err != nil {
			return err
		}
	}
	return nil
}

func selBenchEngines(b *testing.B) (*Engine, *Engine, *cache.CachingStore) {
	b.Helper()
	selBench.once.Do(func() {
		e := New(catalog.New(), objstore.NewMemory())
		if err := loadSelTable(e); err != nil {
			selBench.err = err
			return
		}
		met := objstore.NewMetered(objstore.NewMemory())
		cs := cache.New(met, cache.Config{})
		met.AttachCache(cs)
		ce := New(catalog.New(), cs)
		if err := loadSelTable(ce); err != nil {
			selBench.err = err
			return
		}
		selBench.e, selBench.ce, selBench.cs, selBench.met = e, ce, cs, met
	})
	if selBench.e == nil {
		b.Fatalf("selective-scan bench fixture failed to load: %v", selBench.err)
	}
	return selBench.e, selBench.ce, selBench.cs
}

// Queries: the 1% shape touches all four payload columns but matches only
// every 100th row group (s_seq is sequential, so s_seq % (100·rowGroup)
// < rowGroup selects exactly the rows of those groups — a shape min/max
// zone maps cannot see); the 50% shape matches half the rows of every row
// group (no group can be skipped — it measures the compaction path, not
// chunk skipping).
const (
	selQuery1pct  = `SELECT COUNT(*), SUM(s_a), SUM(s_b), MIN(s_c), MAX(s_d) FROM sel WHERE s_seq % 204800 < 2048`
	selQuery50pct = `SELECT COUNT(*), SUM(s_a), SUM(s_b), MIN(s_c), MAX(s_d) FROM sel WHERE s_seq % 2 = 0`
)

// benchSelectiveScan runs one selective-scan query serially on the plain
// in-memory fixture.
func benchSelectiveScan(b *testing.B, query string) {
	e, _, _ := selBenchEngines(b)
	ctx := context.Background()
	benchSelectiveScanOn(b, e, ctx, query)
}

// benchSelectiveScanInterpreted is the same scan with the vec kernels off —
// the row-at-a-time Evaluator baseline of the A7 ablation.
func benchSelectiveScanInterpreted(b *testing.B, query string) {
	e, _, _ := selBenchEngines(b)
	e.SetVectorized(false)
	defer e.SetVectorized(true)
	benchSelectiveScanOn(b, e, context.Background(), query)
}

func benchSelectiveScanOn(b *testing.B, e *Engine, ctx context.Context, query string) {
	stmt, err := sql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			b.Fatal(err)
		}
		bytes += res.Stats.BytesScanned
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkSelectiveScan1pct: ~1% selectivity, match rows clustered into
// whole row groups — the late-materialization sweet spot.
func BenchmarkSelectiveScan1pct(b *testing.B) { benchSelectiveScan(b, selQuery1pct) }

// BenchmarkSelectiveScan50pct: ~50% selectivity spread over every row
// group — no chunk can be skipped; measures filter-first compaction (and,
// with the kernels on, selection-aware payload decode of partial groups).
func BenchmarkSelectiveScan50pct(b *testing.B) { benchSelectiveScan(b, selQuery50pct) }

// The Interp variants run the identical scans with vectorized evaluation
// disabled — the interpreted baseline the BENCH_5 ablation records.
func BenchmarkSelectiveScan1pctInterp(b *testing.B) {
	benchSelectiveScanInterpreted(b, selQuery1pct)
}

func BenchmarkSelectiveScan50pctInterp(b *testing.B) {
	benchSelectiveScanInterpreted(b, selQuery50pct)
}

// benchSelectiveScanCached is the same scan through the read cache, cold
// (flushed before every iteration) or warm.
func benchSelectiveScanCached(b *testing.B, query string, warm bool) {
	_, e, cs := selBenchEngines(b)
	met := selBench.met
	ctx := context.Background()
	stmt, err := sql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	runOnce := func() int64 {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.BytesScanned
	}
	cs.Flush()
	if warm {
		runOnce()
		cs.WaitReadAhead()
	}
	met.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			cs.Flush()
			met.Reset()
			b.StartTimer()
		}
		bytes += runOnce()
	}
	b.StopTimer()
	cs.WaitReadAhead()
	reportStoreUsage(b, met.Usage(), warm)
	b.SetBytes(bytes / int64(b.N))
}

func BenchmarkSelectiveScan1pctColdCache(b *testing.B) {
	benchSelectiveScanCached(b, selQuery1pct, false)
}

func BenchmarkSelectiveScan1pctWarmCache(b *testing.B) {
	benchSelectiveScanCached(b, selQuery1pct, true)
}

func BenchmarkSelectiveScan50pctColdCache(b *testing.B) {
	benchSelectiveScanCached(b, selQuery50pct, false)
}

func BenchmarkSelectiveScan50pctWarmCache(b *testing.B) {
	benchSelectiveScanCached(b, selQuery50pct, true)
}
