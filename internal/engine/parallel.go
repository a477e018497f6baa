package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// DefaultParallelism resolves a parallelism knob: a positive value is taken
// as-is, anything else means "one worker per CPU".
func DefaultParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// RunPlanParallel executes a plan with intra-query parallelism on the VM
// side. It reuses the CF decomposition (Sec. III-A) to partition the
// dominant scan's files across up to `parallelism` in-process workers, but
// unlike the CF path the worker batches stream directly into the
// coordinator-side merge plan — no intermediate pixfiles touch the object
// store, so BytesIntermediate stays zero and BytesScanned remains exactly
// the $/TB-scan billing unit of Sec. III-B.
//
// Being in-process also unlocks the merge-side splits CF workers cannot
// run: single-join plans partition the probe side while all workers share
// one immutable build-side hash table (built once, billed once), and ORDER
// BY + LIMIT plans run a bounded top-N per worker so the coordinator merges
// k·N rows instead of sorting every partition's output.
//
// Plans that cannot be decomposed (no scans, empty tables) and single-file
// partitions fall back to the serial RunPlan. Partitions are contiguous
// file ranges and the merge consumes worker outputs in partition order, so
// rows arrive at the merge in the serial plan's order — results match
// serial execution exactly, including sort ties, top-N cutoffs and group
// first-appearance order.
func (e *Engine) RunPlanParallel(ctx context.Context, node plan.Node, parallelism int) (*Result, error) {
	parallelism = DefaultParallelism(parallelism)
	if parallelism <= 1 {
		return e.RunPlan(ctx, node)
	}
	// Process-wide parallelism budget: the first worker is free, each
	// additional one needs a token (non-blocking), so overlapping queries
	// divide the host's worker pool instead of multiplying it. Narrower
	// widths produce identical results — only the partition count changes.
	parallelism, releaseWidth := acquireParallelWidth(parallelism)
	defer releaseWidth()
	if parallelism <= 1 {
		return e.RunPlan(ctx, node)
	}
	split, err := e.SplitForCFOpts(node, "local", parallelism, SplitOptions{
		SharedJoinBuild: true,
		TopN:            true,
	})
	if err != nil || len(split.Tasks) <= 1 {
		return e.RunPlan(ctx, node)
	}
	if !drainsFully(split.mergePlan, split.interm) {
		// A merge plan that can stop early (LIMIT with no blocking
		// operator below it) would leave workers mid-scan with however
		// many row groups their buffers ran ahead, making BytesScanned —
		// the billing unit — inflated and timing-dependent. The serial
		// path pulls lazily and bills the minimum.
		return e.RunPlan(ctx, node)
	}
	return e.runSplitParallel(ctx, split)
}

// drainsFully reports whether executing plan n is guaranteed to consume the
// target scan to exhaustion. A LimitNode stops pulling once satisfied, so
// the target is only safe if a blocking operator — sort, aggregation, or a
// join's build side, all of which materialize their input before emitting —
// sits between the limit and the target.
func drainsFully(n plan.Node, target *plan.ScanNode) bool {
	path := pathTo(n, target)
	if path == nil {
		return false // target unreachable: be conservative
	}
	// Walk from the target upward; once a blocking operator is crossed,
	// limits above it cannot cut the target's consumption short.
	protected := false
	for i := len(path) - 2; i >= 0; i-- {
		switch x := path[i].(type) {
		case *plan.SortNode, *plan.AggNode:
			protected = true
		case *plan.JoinNode:
			if x.Right == path[i+1] {
				protected = true
			}
		case *plan.LimitNode:
			if !protected {
				return false
			}
		}
	}
	return true
}

// pathTo returns the root→target node path, or nil.
func pathTo(n plan.Node, target *plan.ScanNode) []plan.Node {
	if n == plan.Node(target) {
		return []plan.Node{n}
	}
	for _, c := range n.Children() {
		if p := pathTo(c, target); p != nil {
			return append([]plan.Node{n}, p...)
		}
	}
	return nil
}

// runSplitParallel fans the split's tasks out over goroutines and merges
// their streamed outputs.
func (e *Engine) runSplitParallel(ctx context.Context, split *CFSplit) (*Result, error) {
	ctx, pspan := obs.StartSpan(ctx, "exec:parallel")
	defer pspan.End()
	pspan.SetAttr("parts", len(split.Tasks))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// A shared-build split evaluates the join's build (right) side here,
	// exactly once — the same number of scans the serial plan performs —
	// and every probe worker gets the same immutable hash table.
	var joinBuilds map[*plan.JoinNode]*exec.JoinBuild
	var buildStats Stats
	if split.buildJoin != nil {
		bspan := pspan.StartChild("join-build")
		rightOp, err := exec.BuildWith(split.buildJoin.Right, e.buildEnv(wctx, &buildStats, nil, pipelineEligible(split.buildJoin.Right), bspan))
		if err != nil {
			bspan.End()
			return nil, err
		}
		jb, err := exec.PrepareJoinBuild(split.buildJoin, rightOp)
		bspan.End()
		if err != nil {
			return nil, err
		}
		joinBuilds = map[*plan.JoinNode]*exec.JoinBuild{split.buildJoin: jb}
	}

	n := len(split.Tasks)
	workerStats := make([]Stats, n)
	workerErrs := make([]error, n)
	chans := make([]chan *col.Batch, n)
	for i := range chans {
		chans[i] = make(chan *col.Batch, 2)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(chans[i])
			wspan := pspan.StartChild(fmt.Sprintf("worker:%d", i))
			workerErrs[i] = e.runWorkerStreaming(obs.ContextWithSpan(wctx, wspan), split, i, joinBuilds, &workerStats[i], chans[i])
			wspan.SetAttr("rows_scanned", workerStats[i].RowsScanned)
			wspan.End()
			if workerErrs[i] != nil {
				cancel() // abort sibling workers
			}
		}(i)
	}

	// The merge plan reads worker batches through the synthetic
	// intermediate scan. Top-N splits stream the k already-sorted worker
	// outputs through a heap merge — O(k·N log k) instead of a full
	// coordinator re-sort — with key ties resolving toward the
	// lower-indexed (earlier-partition) worker, exactly as the serial
	// stable sort would. Every other mode consumes partition by partition,
	// in task order, which keeps group first-appearance order (and
	// therefore output order) deterministic.
	streams := make([]exec.BatchIterator, n)
	for i := range streams {
		i := i
		streams[i] = func() (*col.Batch, error) {
			b, ok := <-chans[i]
			if !ok {
				if err := workerErrs[i]; err != nil {
					return nil, err
				}
				return nil, nil
			}
			return b, nil
		}
	}
	mergePlan := split.mergePlan
	var iter exec.BatchIterator
	if split.Mode == SplitTopN && split.sortedMerge != nil {
		mergePlan = split.sortedMerge
		iter = exec.MergeSorted(streams, split.mergeKeys, split.workerPlan.Schema())
	} else {
		next := 0
		iter = func() (*col.Batch, error) {
			for next < n {
				b, err := streams[next]()
				if err != nil {
					return nil, err
				}
				if b == nil {
					next++
					continue
				}
				return b, nil
			}
			return nil, nil
		}
	}

	stats := &Stats{}
	overrides := map[*plan.ScanNode]scanOverride{
		split.interm: {iter: iter},
	}
	mspan := pspan.StartChild("merge")
	op, err := exec.BuildWith(mergePlan, e.buildEnv(ctx, stats, overrides, nil, mspan))
	var out *col.Batch
	if err == nil {
		out, err = exec.Collect(op)
	}
	mspan.End()

	// Unblock any worker still producing, then wait for all of them so the
	// per-worker stats reads below cannot race.
	cancel()
	for _, ch := range chans {
		for range ch {
		}
	}
	wg.Wait()

	if err != nil {
		// A worker canceled by a sibling's failure surfaces
		// context.Canceled; prefer the root cause.
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			for _, werr := range workerErrs {
				if werr != nil && !errors.Is(werr, context.Canceled) {
					return nil, werr
				}
			}
		}
		return nil, err
	}
	stats.Add(buildStats)
	for i := range workerStats {
		stats.Add(workerStats[i])
	}
	return resultFromBatch(mergePlan.Schema(), out, *stats), nil
}

// runWorkerStreaming executes one task's fragment over its file partition
// and streams result batches into out. Stats accumulate into the caller's
// per-worker slot only — the caller folds them into the query total after
// all workers have stopped.
func (e *Engine) runWorkerStreaming(ctx context.Context, split *CFSplit, task int, joinBuilds map[*plan.JoinNode]*exec.JoinBuild, stats *Stats, out chan<- *col.Batch) error {
	overrides := map[*plan.ScanNode]scanOverride{
		split.partScan: {files: split.Tasks[task].Files},
	}
	env := e.buildEnv(ctx, stats, overrides, pipelineEligible(split.workerPlan), obs.SpanFrom(ctx))
	env.JoinBuilds = joinBuilds
	op, err := exec.BuildWith(split.workerPlan, env)
	if err != nil {
		return err
	}
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.N == 0 {
			continue
		}
		select {
		case out <- b:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
