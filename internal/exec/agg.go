package exec

import (
	"fmt"
	"strings"

	"repro/internal/col"
	"repro/internal/plan"
	"repro/internal/vec"
)

// HashAggOp implements grouped and global aggregation.
type HashAggOp struct {
	node  *plan.AggNode
	child Operator
	ev    *Evaluator
	// keyProgs / argProgs are the compiled group keys and aggregate
	// arguments (nil entries interpret). One Scratch serves them all: each
	// program's root vector is freshly allocated, and only interior nodes
	// alias the scratch.
	keyProgs, argProgs []*vec.ValueProgram
	vs                 vec.Scratch

	out  *col.Batch
	done bool
}

// NewHashAggOp builds a hash-aggregation operator.
func NewHashAggOp(node *plan.AggNode, child Operator) *HashAggOp {
	return newHashAggOp(node, child, false)
}

func newHashAggOp(node *plan.AggNode, child Operator, interpreted bool) *HashAggOp {
	a := &HashAggOp{node: node, child: child, ev: NewEvaluator()}
	if interpreted {
		return a
	}
	a.keyProgs = make([]*vec.ValueProgram, len(node.GroupBy))
	for i, g := range node.GroupBy {
		a.keyProgs[i], _ = vec.CompileValue(g)
	}
	a.argProgs = make([]*vec.ValueProgram, len(node.Aggs))
	for i := range node.Aggs {
		if arg := node.Aggs[i].Arg; arg != nil {
			a.argProgs[i], _ = vec.CompileValue(arg)
		}
	}
	return a
}

// eval computes one group key or aggregate argument over b, through its
// compiled program when there is one and the batch matches its layout.
func (a *HashAggOp) eval(pg *vec.ValueProgram, e plan.BoundExpr, b *col.Batch) (*col.Vector, error) {
	if pg != nil {
		if v, ok := pg.Eval(b, &a.vs); ok {
			return v, nil
		}
	}
	return a.ev.Eval(e, b)
}

// Schema implements Operator.
func (a *HashAggOp) Schema() *col.Schema { return a.node.Schema() }

// aggState is the running state of one aggregate within one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max col.Value
	hasMM    bool
	distinct map[string]bool
}

func (st *aggState) update(spec *plan.AggSpec, v col.Value, keyBuf *strings.Builder) {
	if spec.Func == plan.AggCountStar {
		st.count++
		return
	}
	if v.Null {
		return // aggregates skip NULL inputs
	}
	if spec.Distinct {
		if st.distinct == nil {
			st.distinct = make(map[string]bool)
		}
		keyBuf.Reset()
		keyBuf.WriteString(v.Type.String())
		keyBuf.WriteByte('~')
		keyBuf.WriteString(v.String())
		k := keyBuf.String()
		if st.distinct[k] {
			return
		}
		st.distinct[k] = true
	}
	st.count++
	switch spec.Func {
	case plan.AggSum, plan.AggAvg:
		if v.Type == col.FLOAT64 {
			st.sumF += v.F
		} else {
			st.sumI += v.I
			st.sumF += float64(v.I)
		}
	case plan.AggMin, plan.AggMax:
		// detachValue: min/max state outlives the batch, and decoded string
		// vectors alias per-chunk backing blobs — one retained value must
		// not pin its whole chunk. Cloning happens only when the running
		// extremum changes, not per row.
		if !st.hasMM {
			v = detachValue(v)
			st.min, st.max, st.hasMM = v, v, true
			return
		}
		if v.Compare(st.min) < 0 {
			st.min = detachValue(v)
		}
		if v.Compare(st.max) > 0 {
			st.max = detachValue(v)
		}
	}
}

// detachValue copies a string value out of its source batch's backing so
// retaining it across batches cannot pin chunk-sized decode blobs.
func detachValue(v col.Value) col.Value {
	if v.Type == col.STRING && !v.Null {
		v.S = strings.Clone(v.S)
	}
	return v
}

func (st *aggState) result(spec *plan.AggSpec) col.Value {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return col.Int(st.count)
	case plan.AggSum:
		if st.count == 0 {
			return col.NullValue(spec.Ty)
		}
		if spec.Ty == col.INT64 {
			return col.Int(st.sumI)
		}
		return col.Float(st.sumF)
	case plan.AggAvg:
		if st.count == 0 {
			return col.NullValue(col.FLOAT64)
		}
		return col.Float(st.sumF / float64(st.count))
	case plan.AggMin:
		if !st.hasMM {
			return col.NullValue(spec.Ty)
		}
		return st.min
	case plan.AggMax:
		if !st.hasMM {
			return col.NullValue(spec.Ty)
		}
		return st.max
	default:
		return col.NullValue(spec.Ty)
	}
}

// Open implements Operator: it drains the child and builds the groups.
func (a *HashAggOp) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	a.done = false

	// Groups are dense ids handed out by the typed table in first-
	// appearance order; the table's accumulated key columns double as the
	// output key vectors, so no per-row key encoding or Value boxing
	// happens on the hot update path.
	keyTypes := make([]col.Type, len(a.node.GroupBy))
	for i, g := range a.node.GroupBy {
		keyTypes[i] = g.Type()
	}
	table := newGroupTable(keyTypes)
	var states [][]aggState // indexed by group id

	var valBuf strings.Builder
	keyVecs := make([]*col.Vector, len(a.node.GroupBy))
	argVecs := make([]*col.Vector, len(a.node.Aggs))
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// Evaluate group keys and aggregate arguments once per batch.
		for i, g := range a.node.GroupBy {
			v, err := a.eval(progAt(a.keyProgs, i), g, b)
			if err != nil {
				return err
			}
			keyVecs[i] = v
		}
		for i := range a.node.Aggs {
			argVecs[i] = nil
			if a.node.Aggs[i].Arg == nil {
				continue
			}
			v, err := a.eval(progAt(a.argProgs, i), a.node.Aggs[i].Arg, b)
			if err != nil {
				return err
			}
			argVecs[i] = v
		}
		for r := 0; r < b.N; r++ {
			id, added := table.findOrAdd(keyVecs, r)
			if added {
				states = append(states, make([]aggState, len(a.node.Aggs)))
			}
			st := states[id]
			for i := range a.node.Aggs {
				spec := &a.node.Aggs[i]
				var v col.Value
				if argVecs[i] != nil {
					v = argVecs[i].Value(r)
				}
				st[i].update(spec, v, &valBuf)
			}
		}
	}

	// Global aggregation over empty input still emits one row.
	if len(a.node.GroupBy) == 0 && len(states) == 0 {
		states = append(states, make([]aggState, len(a.node.Aggs)))
	}

	schema := a.Schema()
	ng := len(a.node.GroupBy)
	vecs := make([]*col.Vector, schema.Len())
	for c := 0; c < ng; c++ {
		vecs[c] = table.keys[c]
	}
	for i := range a.node.Aggs {
		out := col.NewVector(schema.Fields[ng+i].Type, 0)
		for g := range states {
			appendValue(out, states[g][i].result(&a.node.Aggs[i]))
		}
		vecs[ng+i] = out
	}
	a.out = &col.Batch{Vecs: vecs, N: len(states)}
	return nil
}

// appendValue appends one dynamic value to a vector.
func appendValue(v *col.Vector, val col.Value) {
	switch v.Type {
	case col.BOOL:
		v.Bools = append(v.Bools, false)
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.Ints = append(v.Ints, 0)
	case col.FLOAT64:
		v.Floats = append(v.Floats, 0)
	case col.STRING:
		v.Strs = append(v.Strs, "")
	default:
		panic(fmt.Sprintf("exec: appendValue on %s", v.Type))
	}
	if v.Valid != nil {
		v.Valid = append(v.Valid, true)
	}
	v.N++
	if val.Null {
		v.SetNull(v.N - 1)
		return
	}
	v.Set(v.N-1, val)
}

// Next implements Operator.
func (a *HashAggOp) Next() (*col.Batch, error) {
	if a.done || a.out == nil {
		return nil, nil
	}
	a.done = true
	return a.out, nil
}

// Close implements Operator.
func (a *HashAggOp) Close() error {
	a.out = nil
	return a.child.Close()
}
