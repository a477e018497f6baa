package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/col"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vec"
)

// Operator is a pull-based executor node. Next returns (nil, nil) at end
// of stream.
type Operator interface {
	Schema() *col.Schema
	Open() error
	Next() (*col.Batch, error)
	Close() error
}

// BatchIterator yields batches of a base table; it returns (nil, nil) when
// exhausted. The engine constructs iterators that read pixfiles from the
// object store (applying projection and zone-map pruning).
type BatchIterator func() (*col.Batch, error)

// ScanStream is what a scan factory yields at Open: the batch iterator plus
// whether it already evaluated the node's pushed-down filter. The engine's
// file iterators filter at the row-group level (late materialization:
// predicate columns are decoded first and non-matching row groups skip the
// rest entirely) and emit already-compacted batches, so re-filtering here
// would only waste a second predicate pass.
type ScanStream struct {
	Iter BatchIterator
	// Filtered reports that Iter already applied the node's Filter and
	// compacted its batches.
	Filtered bool
}

// ScanOp reads a base table through a BatchIterator and applies the
// pushed-down filter unless the stream already did.
type ScanOp struct {
	node    *plan.ScanNode
	newIter func() (ScanStream, error)
	stream  ScanStream
	ev      *Evaluator
	// prog is compiled lazily on the first batch that actually needs
	// re-filtering: engine base-table streams arrive already Filtered (the
	// engine compiled its own program for the scan), so eager compilation
	// here would duplicate that work for a path that never runs.
	prog        *vec.Program
	progTried   bool
	interpreted bool
	vs          vec.Scratch
}

// NewScanOp builds a scan operator. newIter is called at Open, so an
// operator can be re-opened.
func NewScanOp(node *plan.ScanNode, newIter func() (ScanStream, error)) *ScanOp {
	return newScanOp(node, newIter, false)
}

func newScanOp(node *plan.ScanNode, newIter func() (ScanStream, error), interpreted bool) *ScanOp {
	return &ScanOp{node: node, newIter: newIter, ev: NewEvaluator(), interpreted: interpreted}
}

// Schema implements Operator.
func (s *ScanOp) Schema() *col.Schema { return s.node.Schema() }

// Open implements Operator.
func (s *ScanOp) Open() error {
	stream, err := s.newIter()
	if err != nil {
		return err
	}
	s.stream = stream
	return nil
}

// Next implements Operator.
func (s *ScanOp) Next() (*col.Batch, error) {
	for {
		b, err := s.stream.Iter()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if s.node.Filter == nil || s.stream.Filtered {
			return b, nil
		}
		if !s.progTried && !s.interpreted {
			s.prog, _ = vec.Compile(s.node.Filter)
			s.progTried = true
		}
		sel, err := evalSelection(s.node.Filter, b, s.prog, &s.vs, s.ev)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.N {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

// Close implements Operator.
func (s *ScanOp) Close() error {
	s.stream = ScanStream{}
	return nil
}

// progAt is a nil-safe index into a projection's kernel programs (the
// slice is dropped entirely when a build is forced interpreted).
func progAt(progs []*vec.ValueProgram, i int) *vec.ValueProgram {
	if i >= len(progs) {
		return nil
	}
	return progs[i]
}

// evalSelection evaluates a predicate into the selected row indexes,
// through the compiled kernel program when one exists and the batch
// matches its column layout, and through the interpreter otherwise. Both
// paths return the identical selection.
func evalSelection(cond plan.BoundExpr, b *col.Batch, prog *vec.Program, vs *vec.Scratch, ev *Evaluator) ([]int, error) {
	if prog != nil {
		if sel, ok := prog.Run(b, vs); ok {
			return sel, nil
		}
	}
	return ev.EvalBool(cond, b)
}

// FilterOp drops rows whose condition is not TRUE.
type FilterOp struct {
	node  *plan.FilterNode
	child Operator
	ev    *Evaluator
	prog  *vec.Program
	vs    vec.Scratch
}

// NewFilterOp builds a filter operator.
func NewFilterOp(node *plan.FilterNode, child Operator) *FilterOp {
	return newFilterOp(node, child, false)
}

func newFilterOp(node *plan.FilterNode, child Operator, interpreted bool) *FilterOp {
	f := &FilterOp{node: node, child: child, ev: NewEvaluator()}
	if !interpreted {
		f.prog, _ = vec.Compile(node.Cond)
	}
	return f
}

// Schema implements Operator.
func (f *FilterOp) Schema() *col.Schema { return f.node.Schema() }

// Open implements Operator.
func (f *FilterOp) Open() error { return f.child.Open() }

// Next implements Operator.
func (f *FilterOp) Next() (*col.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel, err := evalSelection(f.node.Cond, b, f.prog, &f.vs, f.ev)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.N {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.child.Close() }

// ProjectOp computes expressions.
type ProjectOp struct {
	node  *plan.ProjectNode
	child Operator
	ev    *Evaluator
	progs []*vec.ValueProgram // per expression; nil = interpret
	vs    vec.Scratch
}

// NewProjectOp builds a projection operator.
func NewProjectOp(node *plan.ProjectNode, child Operator) *ProjectOp {
	return newProjectOp(node, child, false)
}

func newProjectOp(node *plan.ProjectNode, child Operator, interpreted bool) *ProjectOp {
	p := &ProjectOp{node: node, child: child, ev: NewEvaluator()}
	if interpreted {
		return p
	}
	p.progs = make([]*vec.ValueProgram, len(node.Exprs))
	for i, e := range node.Exprs {
		p.progs[i], _ = vec.CompileValue(e)
	}
	return p
}

// Schema implements Operator.
func (p *ProjectOp) Schema() *col.Schema { return p.node.Schema() }

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.child.Open() }

// Next implements Operator.
func (p *ProjectOp) Next() (*col.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	vecs := make([]*col.Vector, len(p.node.Exprs))
	for i, e := range p.node.Exprs {
		var v *col.Vector
		if pg := progAt(p.progs, i); pg != nil {
			if kv, ok := pg.Eval(b, &p.vs); ok {
				v = kv
			}
		}
		if v == nil {
			var err error
			v, err = p.ev.Eval(e, b)
			if err != nil {
				return nil, err
			}
		}
		// Projection may widen INT64 expressions into FLOAT64 outputs.
		if want := p.node.Schema().Fields[i].Type; v.Type != want {
			cv, err := evalCast(v, want)
			if err != nil {
				return nil, err
			}
			v = cv
		}
		vecs[i] = v
	}
	return col.NewBatch(vecs...), nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.child.Close() }

// JoinBuild is the materialized build (right) side of a hash join: the
// concatenated batch plus the typed key index. It is immutable once
// prepared, so one build can be probed by any number of join operators
// concurrently (the parallel VM path prepares it once and shares it across
// all probe workers).
type JoinBuild struct {
	batch *col.Batch
	table *joinTable // nil for cross joins (no equi keys)
}

// PrepareJoinBuild drains the build-side operator (opening and closing it)
// and indexes it on the join node's right keys.
func PrepareJoinBuild(node *plan.JoinNode, right Operator) (*JoinBuild, error) {
	if err := right.Open(); err != nil {
		return nil, err
	}
	defer right.Close()
	build := col.EmptyBatch(right.Schema())
	for {
		b, err := right.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		appendBatch(build, b)
	}
	jb := &JoinBuild{batch: build}
	if len(node.RightKeys) > 0 {
		ev := NewEvaluator()
		keyVecs := make([]*col.Vector, len(node.RightKeys))
		for i, k := range node.RightKeys {
			v, err := ev.Eval(k, build)
			if err != nil {
				return nil, err
			}
			if want := joinKeyType(node, i); want != col.UNKNOWN && v.Type != want {
				if v, err = evalCast(v, want); err != nil {
					return nil, err
				}
			}
			keyVecs[i] = v
		}
		jb.table = newJoinTable(keyVecs, build.N)
	}
	return jb, nil
}

// joinKeyType is the vector type both sides of equi-key i are hashed and
// compared at, or UNKNOWN when no coercion applies. The planner accepts
// INT64 = FLOAT64 as a join edge (the comparison semantics widen to
// float), so mixed numeric keys coerce to FLOAT64; any other mismatch is
// left alone — rowsEqual's type guard keeps such keys unmatched rather
// than risking a failing cast.
func joinKeyType(node *plan.JoinNode, i int) col.Type {
	lt, rt := node.LeftKeys[i].Type(), node.RightKeys[i].Type()
	if lt != rt && lt.Numeric() && rt.Numeric() {
		return col.FLOAT64
	}
	return col.UNKNOWN
}

// HashJoinOp implements inner/left hash joins and nested cross joins.
// The right child is the build side.
type HashJoinOp struct {
	node        *plan.JoinNode
	left, right Operator // right is nil when the build side is shared
	ev          *Evaluator

	shared *JoinBuild // pre-built by the caller; nil = build at Open
	build  *JoinBuild

	// Per-batch scratch, reused across Next calls.
	keyVecs  []*col.Vector
	leftIdx  []int
	rightIdx []int
	outLeft  []int
	outRight []int
	pass     []bool
	matched  []bool
	emitted  []bool
}

// NewHashJoinOp builds a join operator that materializes its own build side
// at Open.
func NewHashJoinOp(node *plan.JoinNode, left, right Operator) *HashJoinOp {
	return &HashJoinOp{node: node, left: left, right: right, ev: NewEvaluator()}
}

// NewHashJoinOpShared builds a join operator probing a pre-built shared
// build side; only the probe (left) child is opened and drained.
func NewHashJoinOpShared(node *plan.JoinNode, left Operator, build *JoinBuild) *HashJoinOp {
	return &HashJoinOp{node: node, left: left, shared: build, ev: NewEvaluator()}
}

// Schema implements Operator.
func (j *HashJoinOp) Schema() *col.Schema { return j.node.Schema() }

// Open implements Operator.
func (j *HashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if j.shared != nil {
		j.build = j.shared
		return nil
	}
	build, err := PrepareJoinBuild(j.node, j.right)
	if err != nil {
		return err
	}
	j.build = build
	return nil
}

// Next implements Operator.
func (j *HashJoinOp) Next() (*col.Batch, error) {
	for {
		lb, err := j.left.Next()
		if err != nil || lb == nil {
			return nil, err
		}
		out, err := j.joinBatch(lb)
		if err != nil {
			return nil, err
		}
		if out.N > 0 {
			return out, nil
		}
	}
}

func (j *HashJoinOp) joinBatch(lb *col.Batch) (*col.Batch, error) {
	// rightIdx -1 marks a NULL-extended row. Both index slices are scratch
	// reused across batches; materialize copies out of them.
	leftIdx, rightIdx := j.leftIdx[:0], j.rightIdx[:0]
	switch {
	case len(j.node.LeftKeys) > 0:
		keyVecs := j.keyVecs[:0]
		for i, k := range j.node.LeftKeys {
			v, err := j.ev.Eval(k, lb)
			if err != nil {
				return nil, err
			}
			if want := joinKeyType(j.node, i); want != col.UNKNOWN && v.Type != want {
				if v, err = evalCast(v, want); err != nil {
					return nil, err
				}
			}
			keyVecs = append(keyVecs, v)
		}
		j.keyVecs = keyVecs
		table := j.build.table
		for i := 0; i < lb.N; i++ {
			m := table.lookup(keyVecs, i)
			if m < 0 {
				if j.node.Kind == plan.JoinLeft {
					leftIdx = append(leftIdx, i)
					rightIdx = append(rightIdx, -1)
				}
				continue
			}
			for ; m >= 0; m = table.next[m] {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, int(m))
			}
		}
	default: // cross join, or keyless LEFT JOIN (residual-only ON)
		if j.build.batch.N == 0 && j.node.Kind == plan.JoinLeft {
			// No build rows to pair with: every probe row survives
			// NULL-extended.
			for i := 0; i < lb.N; i++ {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			break
		}
		for i := 0; i < lb.N; i++ {
			for m := 0; m < j.build.batch.N; m++ {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, m)
			}
		}
	}
	j.leftIdx, j.rightIdx = leftIdx, rightIdx

	joined := j.materialize(lb, leftIdx, rightIdx)
	if j.node.Residual == nil || joined.N == 0 {
		return joined, nil
	}
	sel, err := j.ev.EvalBool(j.node.Residual, joined)
	if err != nil {
		return nil, err
	}
	if j.node.Kind != plan.JoinLeft {
		if len(sel) == joined.N {
			return joined, nil
		}
		return joined.Gather(sel), nil
	}
	// LEFT JOIN residual: rows failing the residual keep the left side
	// with a NULL right side, once per left row. The bookkeeping is three
	// reused boolean scratch slices — pass indexed by joined row, matched
	// and emitted by probe row.
	pass := resizeBools(&j.pass, joined.N)
	for _, s := range sel {
		pass[s] = true
	}
	matched := resizeBools(&j.matched, lb.N)
	for r := 0; r < joined.N; r++ {
		if pass[r] && rightIdx[r] >= 0 {
			matched[leftIdx[r]] = true
		}
	}
	emitted := resizeBools(&j.emitted, lb.N)
	outLeft, outRight := j.outLeft[:0], j.outRight[:0]
	for r := 0; r < joined.N; r++ {
		li := leftIdx[r]
		switch {
		case pass[r] && rightIdx[r] >= 0:
			outLeft = append(outLeft, li)
			outRight = append(outRight, rightIdx[r])
		case !matched[li] && !emitted[li]:
			outLeft = append(outLeft, li)
			outRight = append(outRight, -1)
			emitted[li] = true
		}
	}
	j.outLeft, j.outRight = outLeft, outRight
	return j.materialize(lb, outLeft, outRight), nil
}

// resizeBools resizes *buf to n cleared entries, reusing its capacity.
func resizeBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}

// materialize assembles the joined batch from row-index pairs.
func (j *HashJoinOp) materialize(lb *col.Batch, leftIdx, rightIdx []int) *col.Batch {
	schema := j.Schema()
	n := len(leftIdx)
	vecs := make([]*col.Vector, schema.Len())
	lw := len(lb.Vecs)
	for c := 0; c < lw; c++ {
		vecs[c] = lb.Vecs[c].Gather(leftIdx)
	}
	for c := 0; c < len(j.build.batch.Vecs); c++ {
		src := j.build.batch.Vecs[c]
		out := col.NewVector(src.Type, n)
		for r, m := range rightIdx {
			if m < 0 {
				out.SetNull(r)
				continue
			}
			if src.IsNull(m) {
				out.SetNull(r)
				continue
			}
			out.Set(r, src.Value(m))
		}
		vecs[lw+c] = out
	}
	return &col.Batch{Vecs: vecs, N: n}
}

// Close implements Operator.
func (j *HashJoinOp) Close() error {
	err1 := j.left.Close()
	var err2 error
	if j.right != nil {
		err2 = j.right.Close()
	}
	j.build = nil
	if err1 != nil {
		return err1
	}
	return err2
}

func appendBatch(dst, src *col.Batch) {
	for c := range dst.Vecs {
		for r := 0; r < src.N; r++ {
			dst.Vecs[c].Append(src.Vecs[c], r)
		}
	}
	dst.N += src.N
}

// SortOp materializes and totally orders its input. NULLs sort last
// ascending, first descending.
type SortOp struct {
	node  *plan.SortNode
	child Operator
	out   *col.Batch
	done  bool
}

// NewSortOp builds a sort operator.
func NewSortOp(node *plan.SortNode, child Operator) *SortOp {
	return &SortOp{node: node, child: child}
}

// Schema implements Operator.
func (s *SortOp) Schema() *col.Schema { return s.node.Schema() }

// Open implements Operator.
func (s *SortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	all := col.EmptyBatch(s.child.Schema())
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		appendBatch(all, b)
	}
	idx := make([]int, all.N)
	for i := range idx {
		idx[i] = i
	}
	// compareStoredRows (shared with TopNOp) places NULLS LAST ascending,
	// NULLS FIRST descending; SliceStable keeps arrival order on full ties.
	sort.SliceStable(idx, func(a, b int) bool {
		return compareStoredRows(all, idx[a], all, idx[b], s.node.Keys) < 0
	})
	s.out = all.Gather(idx)
	return nil
}

// compareVecs compares row a of va against row b of vb (non-null, same
// type).
func compareVecs(va *col.Vector, a int, vb *col.Vector, b int) int {
	switch va.Type {
	case col.BOOL:
		x, y := va.Bools[a], vb.Bools[b]
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case col.INT64, col.DATE, col.TIMESTAMP:
		x, y := va.Ints[a], vb.Ints[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case col.FLOAT64:
		x, y := va.Floats[a], vb.Floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case col.STRING:
		return strings.Compare(va.Strs[a], vb.Strs[b])
	default:
		return 0
	}
}

// Next implements Operator.
func (s *SortOp) Next() (*col.Batch, error) {
	if s.done || s.out == nil {
		return nil, nil
	}
	s.done = true
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.out = nil
	return s.child.Close()
}

// LimitOp truncates the stream.
type LimitOp struct {
	node    *plan.LimitNode
	child   Operator
	skipped int64
	emitted int64
}

// NewLimitOp builds a limit operator.
func NewLimitOp(node *plan.LimitNode, child Operator) *LimitOp {
	return &LimitOp{node: node, child: child}
}

// Schema implements Operator.
func (l *LimitOp) Schema() *col.Schema { return l.node.Schema() }

// Open implements Operator.
func (l *LimitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open()
}

// Next implements Operator.
func (l *LimitOp) Next() (*col.Batch, error) {
	for {
		if l.node.Limit >= 0 && l.emitted >= l.node.Limit {
			return nil, nil
		}
		b, err := l.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		// Apply offset.
		if l.skipped < l.node.Offset {
			remain := l.node.Offset - l.skipped
			if int64(b.N) <= remain {
				l.skipped += int64(b.N)
				continue
			}
			b = b.Slice(int(remain), b.N)
			l.skipped = l.node.Offset
		}
		if l.node.Limit >= 0 {
			want := l.node.Limit - l.emitted
			if int64(b.N) > want {
				b = b.Slice(0, int(want))
			}
		}
		l.emitted += int64(b.N)
		if b.N > 0 {
			return b, nil
		}
	}
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.child.Close() }

// BuildEnv supplies the execution context for BuildWith: the per-scan
// iterator factory plus optional pre-built join build sides (the parallel
// VM path prepares one build per shared join and hands the same immutable
// table to every probe worker).
type BuildEnv struct {
	ScanFactory func(*plan.ScanNode) func() (ScanStream, error)
	JoinBuilds  map[*plan.JoinNode]*JoinBuild
	// Interpreted disables the vectorized expression kernels for this
	// build: scan/filter predicates, projections, group keys and aggregate
	// arguments evaluate through the row-at-a-time Evaluator only. Results
	// are bit-identical either way — the flag exists for the
	// interpreted-vs-vectorized ablation and as an escape hatch.
	Interpreted bool
	// FusedAggScan, when set, may replace a group-free AggNode sitting
	// directly on a ScanNode with a single fused scan+aggregate operator
	// that folds rows during chunk decode instead of materializing batches
	// for HashAggOp. Returning ok=false keeps the normal HashAggOp-over-
	// scan tree; rows, stats and billed bytes are identical either way.
	FusedAggScan func(*plan.AggNode, *plan.ScanNode) (Operator, bool)
	// Span, when non-nil, wraps every built operator in a timing decorator
	// recording one child span per operator (opened at Open, closed at
	// Close, rows emitted as an attr), nested to mirror the operator tree.
	// Rows, stats and billed bytes are unaffected.
	Span *obs.Span

	// parentHolder threads the enclosing operator's span holder through
	// recursive traced builds so operator spans nest; nil at the root.
	parentHolder *opSpanHolder
}

// Build constructs the operator tree for a plan. scanFactory supplies the
// batch stream for each scan node.
func Build(n plan.Node, scanFactory func(*plan.ScanNode) func() (ScanStream, error)) (Operator, error) {
	return BuildWith(n, BuildEnv{ScanFactory: scanFactory})
}

// BuildWith is Build with an explicit environment. When env.Span is set
// every operator is wrapped in a span decorator; otherwise the tree is
// built bare with zero tracing overhead.
func BuildWith(n plan.Node, env BuildEnv) (Operator, error) {
	if env.Span == nil {
		return buildOp(n, env)
	}
	parent := env.parentHolder
	if parent == nil {
		parent = &opSpanHolder{s: env.Span}
	}
	self := &opSpanHolder{}
	childEnv := env
	childEnv.parentHolder = self
	inner, err := buildOp(n, childEnv)
	if err != nil {
		return nil, err
	}
	return &spanOp{inner: inner, name: opSpanName(n), parent: parent, self: self}, nil
}

// buildOp constructs one operator, recursing through BuildWith so traced
// builds wrap every level.
func buildOp(n plan.Node, env BuildEnv) (Operator, error) {
	switch x := n.(type) {
	case *plan.ScanNode:
		return newScanOp(x, env.ScanFactory(x), env.Interpreted), nil
	case *plan.FilterNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newFilterOp(x, child, env.Interpreted), nil
	case *plan.ProjectNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newProjectOp(x, child, env.Interpreted), nil
	case *plan.JoinNode:
		left, err := BuildWith(x.Left, env)
		if err != nil {
			return nil, err
		}
		if jb := env.JoinBuilds[x]; jb != nil {
			return NewHashJoinOpShared(x, left, jb), nil
		}
		right, err := BuildWith(x.Right, env)
		if err != nil {
			return nil, err
		}
		return NewHashJoinOp(x, left, right), nil
	case *plan.AggNode:
		if env.FusedAggScan != nil {
			if scan, ok := x.Child.(*plan.ScanNode); ok {
				if op, ok := env.FusedAggScan(x, scan); ok {
					return op, nil
				}
			}
		}
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newHashAggOp(x, child, env.Interpreted), nil
	case *plan.SortNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewSortOp(x, child), nil
	case *plan.TopNNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewTopNOp(x, child), nil
	case *plan.LimitNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewLimitOp(x, child), nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// Collect opens, drains and closes an operator, returning all rows.
func Collect(op Operator) (*col.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := col.EmptyBatch(op.Schema())
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		appendBatch(out, b)
	}
}
