package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

// newNullHeavyEngine builds a table where every nullable column is ~1/3
// NULL, so the vectorized and interpreted paths are compared under heavy
// three-valued logic, with row groups that are fully matching, partially
// matching and zero-matching for typical predicates.
func newNullHeavyEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		`CREATE TABLE nh (n_key BIGINT NOT NULL, n_a BIGINT, n_b DOUBLE,
			n_s VARCHAR, n_flag BOOLEAN)`,
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	words := []string{"word", "world", "wo", "abc", ""}
	r := rand.New(rand.NewSource(11))
	for f := 0; f < 4; f++ {
		const rows = 2048
		key := col.NewVector(col.INT64, rows)
		a := col.NewVector(col.INT64, rows)
		b := col.NewVector(col.FLOAT64, rows)
		s := col.NewVector(col.STRING, rows)
		fl := col.NewVector(col.BOOL, rows)
		for i := 0; i < rows; i++ {
			id := f*rows + i
			key.Ints[i] = int64(id)
			a.Ints[i] = int64(r.Intn(9) - 4)
			b.Floats[i] = float64(r.Intn(21)-10) / 4
			s.Strs[i] = fmt.Sprintf("%s-%d", words[r.Intn(len(words))], r.Intn(5))
			fl.Bools[i] = r.Intn(2) == 0
			for _, v := range []*col.Vector{a, b, s, fl} {
				if r.Intn(3) == 0 {
					v.SetNull(i)
				}
			}
		}
		if err := e.LoadBatch("db", "nh", col.NewBatch(key, a, b, s, fl),
			pixfile.WriterOptions{RowGroupSize: 256}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// vecEquivAtoms are WHERE building blocks spanning the kernel set (arith,
// comparisons, IS NULL, IN, every LIKE shape, CASE, scalar functions) and a
// deliberate fallback (CAST compiles to no kernel), plus zero-match and
// all-match shapes. String atoms mix dictionary-eligible forms (only the
// string column itself under compare/LIKE/IN) with ones that force full
// decode (functions over the string column).
var vecEquivAtoms = []string{
	"n_a % 3 = 1",
	"(n_key + n_a) % 5 < 2",
	"n_b * 2 > n_a",
	"n_key / 3 > 500",
	"n_s LIKE 'wo%'",
	"n_s LIKE '%-3'",
	"n_s LIKE '%or%'",
	"n_s LIKE 'w_rd-_'",
	"n_s = 'word-1'",
	"n_s IN ('word-1', 'wo-4', '')",
	"n_a IS NULL",
	"n_b IS NOT NULL",
	"n_a IN (1, 2)",
	"n_key < 0",
	"n_key >= 0",
	"-n_a > 2",
	"CASE WHEN n_a > 0 THEN n_b ELSE -n_b END > 0.5",
	"CASE WHEN n_flag THEN 1 ELSE 0 END = 1",
	"LENGTH(n_s) > 5",
	"LOWER(n_s) = 'word-1'",
	"SUBSTR(n_s, 1, 2) = 'wo'",
	"ABS(n_a) = 2",
	"COALESCE(n_a, 0) >= 0",
	"CAST(n_a AS VARCHAR) = '1'",
}

func randPredicate(r *rand.Rand) string {
	atom := func() string {
		a := vecEquivAtoms[r.Intn(len(vecEquivAtoms))]
		if r.Intn(4) == 0 {
			return "NOT (" + a + ")"
		}
		return a
	}
	p := atom()
	for n := r.Intn(3); n > 0; n-- {
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		p = fmt.Sprintf("(%s) %s (%s)", p, op, atom())
	}
	return p
}

// runVecEquivQuery executes q on every execution shape of one engine:
// pipelined and synchronous serial scans, and parallel widths 2 and 8.
func runVecEquivQuery(t *testing.T, e *Engine, q string) []*Result {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel := stmt.(*sql.Select)
	var out []*Result
	run := func(prefetch, width int) {
		e.SetScanPrefetch(prefetch)
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		var res *Result
		if width <= 1 {
			res, err = e.RunPlan(ctx, node)
		} else {
			res, err = e.RunPlanParallel(ctx, node, width)
		}
		if err != nil {
			t.Fatalf("run %q (prefetch=%d width=%d): %v", q, prefetch, width, err)
		}
		out = append(out, res)
	}
	run(-1, 1) // synchronous
	run(4, 1)  // pipelined
	run(4, 2)
	run(4, 8)
	e.SetScanPrefetch(0)
	return out
}

// TestVectorizedEquivalenceProperty: for random NULL-heavy predicates, the
// vectorized path must be bit-identical to the interpreted path — same
// rows, same billed bytes, same scan stats — across serial, pipelined and
// parallel execution at widths 1/2/8.
func TestVectorizedEquivalenceProperty(t *testing.T) {
	e := newNullHeavyEngine(t)
	r := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		pred := randPredicate(r)
		q := fmt.Sprintf(`SELECT COUNT(*), SUM(n_key), SUM(n_a), MIN(n_s), MAX(n_b)
			FROM nh WHERE %s`, pred)

		e.SetVectorized(false)
		interp := runVecEquivQuery(t, e, q)
		e.SetVectorized(true)
		vecd := runVecEquivQuery(t, e, q)

		base := interp[0]
		for i, res := range append(interp[1:], vecd...) {
			label := fmt.Sprintf("trial %d variant %d (%s)", trial, i, pred)
			gb, wb := rowsAsStrings(res), rowsAsStrings(base)
			if len(gb) != len(wb) {
				t.Fatalf("%s: %d rows vs %d", label, len(gb), len(wb))
			}
			for j := range gb {
				if gb[j] != wb[j] {
					t.Fatalf("%s: row %d %q vs %q", label, j, gb[j], wb[j])
				}
			}
			if res.Stats.BytesScanned != base.Stats.BytesScanned {
				t.Fatalf("%s: billed bytes %d vs %d", label, res.Stats.BytesScanned, base.Stats.BytesScanned)
			}
			if res.Stats.RowsScanned != base.Stats.RowsScanned ||
				res.Stats.RowsFiltered != base.Stats.RowsFiltered ||
				res.Stats.ColumnChunksSkipped != base.Stats.ColumnChunksSkipped ||
				res.Stats.RowGroupsPruned != base.Stats.RowGroupsPruned {
				t.Fatalf("%s: scan stats diverge: %+v vs %+v", label, res.Stats, base.Stats)
			}
		}
	}
}

// TestVectorizedEquivalenceRowOutput covers non-aggregate output (projected
// expressions and raw rows survive compaction identically, including the
// selection-aware decode of partially matching groups).
func TestVectorizedEquivalenceRowOutput(t *testing.T) {
	e := newNullHeavyEngine(t)
	queries := []string{
		// Partial row groups + payload string/float columns.
		"SELECT n_key, n_s, n_b FROM nh WHERE n_a % 3 = 1 ORDER BY n_key",
		// Projection arithmetic through the value kernels.
		"SELECT n_key + 1, n_a * 2, n_b / 4 FROM nh WHERE n_key % 97 = 0 ORDER BY n_key",
		// NULL-dominated predicate.
		"SELECT n_key FROM nh WHERE n_a IS NULL AND n_s LIKE 'wo%' ORDER BY n_key",
		// CASE and scalar functions through the value kernels, over a
		// dictionary-eligible string predicate.
		`SELECT CASE WHEN n_a > 0 THEN 'pos' WHEN n_a < 0 THEN 'neg' ELSE 'zero' END,
			UPPER(n_s), LENGTH(n_s), COALESCE(n_a, -99)
			FROM nh WHERE n_s LIKE '%or%' ORDER BY n_key`,
		// Nested functions + ROUND over floats.
		`SELECT SUBSTR(CONCAT(n_s, '!'), 2, 3), ROUND(n_b), ABS(n_a)
			FROM nh WHERE n_key % 53 = 0 ORDER BY n_key`,
	}
	ctx := context.Background()
	for _, q := range queries {
		e.SetVectorized(false)
		base, err := e.Execute(ctx, "db", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		e.SetVectorized(true)
		got, err := e.Execute(ctx, "db", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		gb, wb := rowsAsStrings(got), rowsAsStrings(base)
		if len(gb) != len(wb) {
			t.Fatalf("%s: %d rows vs %d", q, len(gb), len(wb))
		}
		for j := range gb {
			if gb[j] != wb[j] {
				t.Fatalf("%s: row %d %q vs %q", q, j, gb[j], wb[j])
			}
		}
		if got.Stats.BytesScanned != base.Stats.BytesScanned {
			t.Fatalf("%s: billed bytes %d vs %d", q, got.Stats.BytesScanned, base.Stats.BytesScanned)
		}
	}
}

// TestVectorizedEquivalenceGroupedAgg: grouped aggregates whose keys and
// arguments are expressions (pricing-summary shape: SUM(x*(1-y)), AVG,
// COUNT(*) over two string keys) are bit-identical vectorized and
// interpreted, at every execution shape — parallel widths aggregate
// partials in a different order, so each shape is compared with itself.
func TestVectorizedEquivalenceGroupedAgg(t *testing.T) {
	e := newNullHeavyEngine(t)
	queries := []string{
		`SELECT n_s, CASE WHEN n_flag THEN 'A' ELSE 'R' END, SUM(n_a), SUM(n_b * (1 - n_a)),
			AVG(n_b * (1 - n_a)), AVG(n_b), COUNT(*)
			FROM nh WHERE n_key % 3 <> 0
			GROUP BY n_s, CASE WHEN n_flag THEN 'A' ELSE 'R' END ORDER BY 1, 2`,
		`SELECT n_a % 3, MIN(n_b * 2 + n_a), MAX(LENGTH(n_s)), COUNT(n_b)
			FROM nh GROUP BY n_a % 3 ORDER BY 1`,
	}
	for _, q := range queries {
		e.SetVectorized(false)
		interp := runVecEquivQuery(t, e, q)
		e.SetVectorized(true)
		vecd := runVecEquivQuery(t, e, q)
		for i := range interp {
			want, got := interp[i], vecd[i]
			if len(got.Rows) != len(want.Rows) || len(want.Rows) == 0 {
				t.Fatalf("%s shape %d: %d rows vs %d", q, i, len(got.Rows), len(want.Rows))
			}
			for r := range want.Rows {
				for c, w := range want.Rows[r] {
					g := got.Rows[r][c]
					if g.Null != w.Null || g.Type != w.Type || g.B != w.B || g.I != w.I || g.S != w.S ||
						math.Float64bits(g.F) != math.Float64bits(w.F) {
						t.Fatalf("%s shape %d row %d col %d: vectorized %v, interpreted %v", q, i, r, c, g, w)
					}
				}
			}
			if got.Stats.BytesScanned != want.Stats.BytesScanned {
				t.Fatalf("%s shape %d: billed bytes %d vs %d", q, i, got.Stats.BytesScanned, want.Stats.BytesScanned)
			}
		}
	}
}
