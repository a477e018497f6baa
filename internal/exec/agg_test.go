package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// TestHashAggVectorizedMatchesInterpreted runs a pricing-summary-shaped
// grouped aggregate — two string keys, SUM/AVG over x*(1-y), AVG, MIN and
// COUNT(*) — through the compiled group-key and argument programs and
// through the Evaluator, over NULL-bearing batches. The outputs must be
// bit-identical, floats included.
func TestHashAggVectorizedMatchesInterpreted(t *testing.T) {
	schema := col.NewSchema(
		col.Field{Name: "flag", Type: col.STRING, Nullable: true},
		col.Field{Name: "status", Type: col.STRING, Nullable: true},
		col.Field{Name: "x", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "y", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "q", Type: col.INT64, Nullable: true},
	)
	r := rand.New(rand.NewSource(7))
	var batches []*col.Batch
	for b := 0; b < 6; b++ {
		const n = 500
		flag, status := col.NewVector(col.STRING, n), col.NewVector(col.STRING, n)
		x, y, q := col.NewVector(col.FLOAT64, n), col.NewVector(col.FLOAT64, n), col.NewVector(col.INT64, n)
		for i := 0; i < n; i++ {
			flag.Strs[i] = []string{"A", "N", "R"}[r.Intn(3)]
			status.Strs[i] = []string{"F", "O"}[r.Intn(2)]
			x.Floats[i] = float64(r.Intn(1_000_000)) / 100
			y.Floats[i] = float64(r.Intn(11)) / 100
			q.Ints[i] = int64(r.Intn(50) + 1)
			for _, v := range []*col.Vector{flag, x, y, q} {
				if r.Intn(10) == 0 {
					v.SetNull(i)
				}
			}
		}
		batches = append(batches, col.NewBatch(flag, status, x, y, q))
	}
	x, y := colRef(2, col.FLOAT64), colRef(3, col.FLOAT64)
	disc := &plan.BBinary{Op: "*", L: x, R: &plan.BBinary{Op: "-", L: lit(col.Float(1)), R: y, Ty: col.FLOAT64}, Ty: col.FLOAT64}
	node := &plan.AggNode{
		Child:      fakeNode(schema),
		GroupBy:    []plan.BoundExpr{colRef(0, col.STRING), colRef(1, col.STRING)},
		GroupNames: []string{"flag", "status"},
		Aggs: []plan.AggSpec{
			{Func: plan.AggSum, Arg: colRef(4, col.INT64), Name: "sum_q", Ty: col.INT64},
			{Func: plan.AggSum, Arg: disc, Name: "sum_disc", Ty: col.FLOAT64},
			{Func: plan.AggAvg, Arg: disc, Name: "avg_disc", Ty: col.FLOAT64},
			{Func: plan.AggAvg, Arg: x, Name: "avg_x", Ty: col.FLOAT64},
			{Func: plan.AggMin, Arg: disc, Name: "min_disc", Ty: col.FLOAT64},
			{Func: plan.AggCountStar, Name: "cnt", Ty: col.INT64},
		},
	}

	vecOp := newHashAggOp(node, sliceSource(schema, batches...), false)
	for i, pg := range vecOp.argProgs {
		if pg == nil && node.Aggs[i].Arg != nil {
			t.Fatalf("aggregate %s argument did not compile", node.Aggs[i].Name)
		}
	}
	got, err := Collect(vecOp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(newHashAggOp(node, sliceSource(schema, batches...), true))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.N != 8 {
		t.Fatalf("groups: vectorized %d, interpreted %d, want 8", got.N, want.N)
	}
	for c := range want.Vecs {
		gv, wv := got.Vecs[c], want.Vecs[c]
		for r := 0; r < want.N; r++ {
			g, w := gv.Value(r), wv.Value(r)
			same := g.Null == w.Null && g.Type == w.Type && g.B == w.B && g.I == w.I && g.S == w.S &&
				math.Float64bits(g.F) == math.Float64bits(w.F)
			if !same {
				t.Fatalf("row %d column %d: vectorized %v, interpreted %v", r, c, g, w)
			}
		}
	}
}
