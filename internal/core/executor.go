package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/plan"
)

// realCFJob drives one query's CF tasks through the engine's attempt
// primitive (Engine.RunAttempt), its merge through Engine.MergeResults, and
// sweeps the query's intermediate prefix on every exit: the scheduler calls
// Merge or Abort only after every attempt has returned.
type realCFJob struct {
	engine  *engine.Engine
	split   *engine.CFSplit
	invoker engine.WorkerInvoker
	trace   *obs.Trace // nil = tracing off

	mu       sync.Mutex
	attempts []int // RunTask calls per task: the scheduler's retries
	interms  []catalog.FileMeta
}

// NumTasks implements CFJob.
func (j *realCFJob) NumTasks() int { return len(j.split.Tasks) }

// RunTask implements CFJob. The scheduler may call it again for the same
// task after a failure; each call is a fresh attempt writing to its own
// intermediate key, so a retry can never read a failed attempt's output.
func (j *realCFJob) RunTask(i int, done func(TaskOutcome)) {
	j.mu.Lock()
	attempt := j.attempts[i]
	j.attempts[i]++
	j.mu.Unlock()
	if attempt > 0 {
		obs.DistTaskRetriesTotal.Inc()
	}
	go func() {
		span := j.trace.Root().StartChild(fmt.Sprintf("cf-task:%d.a%d", i, attempt))
		ctx := obs.ContextWithSpan(context.Background(), span)
		resp, err := j.engine.RunAttempt(ctx, j.invoker, j.split, i, attempt)
		span.End()
		if err != nil {
			done(TaskOutcome{Err: err})
			return
		}
		j.mu.Lock()
		j.interms[i] = resp.Interm
		j.mu.Unlock()
		done(TaskOutcome{Stats: resp.Stats})
	}()
}

// Merge implements CFJob.
func (j *realCFJob) Merge(done func(Outcome)) {
	go func() {
		j.mu.Lock()
		interms := append([]catalog.FileMeta(nil), j.interms...)
		j.mu.Unlock()
		ctx := obs.ContextWithTrace(context.Background(), j.trace)
		res, err := j.engine.MergeResults(ctx, j.split, interms)
		if err != nil {
			done(Outcome{Err: err})
			return
		}
		done(Outcome{Result: res, Stats: res.Stats})
	}()
}

// Abort implements CFJob: sweep what the failed query's attempts wrote.
func (j *realCFJob) Abort() {
	_, _ = objstore.DeletePrefix(j.engine.Store(), objstore.IntermediatePrefix(j.split.QueryID))
}

var _ CFJob = (*realCFJob)(nil)

// PlanPayload lets callers submit an already-bound plan (used by the REST
// server to report plan errors at submission time rather than
// asynchronously).
type PlanPayload struct {
	Node plan.Node
	// ResultKey identifies the query in the coordinator's result cache
	// (plan fingerprint + referenced-table generations, computed by
	// internal/qcache). Empty means the query bypasses the result cache.
	ResultKey string
	// Trace, when set, collects this query's span tree: the executor
	// carries it into the engine via context, CF tasks record per-attempt
	// spans, and the coordinator ends the root at finalize. Nil = tracing
	// off, with zero overhead past a nil check.
	Trace *obs.Trace
}

// PlannedExecutor runs pre-bound plans on the actual engine. VM execution
// is an in-process parallel plan run (the scheduler decides *where* a query
// runs, Parallelism decides *how wide*) that also parallelizes the merge
// side — shared-build partitioned joins and per-worker top-N. CF execution
// uses the engine's default sub-plan split: each worker task is one
// Engine.RunAttempt through CFInvoker, writing an attempt-numbered
// intermediate to the object store (separate workers cannot share a build
// table, so the CF split keeps joins on the coordinator), and the merge is
// Engine.MergeResults. All reads go through the engine's store stack —
// including the optional read cache, whose per-query hit/miss counts ride
// back in Outcome.Stats (SimExecutorConfig.CacheHitRatio is the modeled
// counterpart). Completions arrive from goroutines, so it is meant for the
// real clock (the live server path).
type PlannedExecutor struct {
	Engine *engine.Engine
	// Parallelism is the VM-side intra-query worker width: 0 means one
	// worker per CPU, 1 forces the serial path.
	Parallelism int
	// CFInvoker runs each CF worker attempt: the task is serialized as a
	// WorkerRequest (wire-format fragment + file partition) and executed
	// wherever the invoker runs it — a pixels-worker OS process for
	// engine.ProcessInvoker, a FaaS call for a real CF tier. Nil means
	// engine.LocalInvoker over Engine: the same request and attempt keys,
	// executed in this process. Results, stats and billed bytes are
	// identical either way; the scheduler's retries work unchanged because
	// every retry gets a fresh attempt-suffixed intermediate key.
	CFInvoker engine.WorkerInvoker
}

// VMRun implements Executor.
func (r *PlannedExecutor) VMRun(q *Query, done func(Outcome)) {
	payload, ok := q.Payload.(PlanPayload)
	if !ok {
		done(Outcome{Err: fmt.Errorf("core: query %s has no plan payload", q.ID)})
		return
	}
	go func() {
		ctx := obs.ContextWithTrace(context.Background(), payload.Trace)
		res, err := r.Engine.RunPlanParallel(ctx, payload.Node, r.Parallelism)
		if err != nil {
			done(Outcome{Err: err})
			return
		}
		done(Outcome{Result: res, Stats: res.Stats})
	}()
}

// CFPlan implements Executor.
func (r *PlannedExecutor) CFPlan(q *Query, maxParts int) (CFJob, error) {
	payload, ok := q.Payload.(PlanPayload)
	if !ok {
		return nil, fmt.Errorf("core: query %s has no plan payload", q.ID)
	}
	split, err := r.Engine.SplitForCF(payload.Node, q.ID, maxParts)
	if err != nil {
		return nil, err
	}
	invoker := r.CFInvoker
	if invoker == nil {
		invoker = &engine.LocalInvoker{Engine: r.Engine}
	}
	return &realCFJob{
		engine:   r.Engine,
		split:    split,
		invoker:  invoker,
		trace:    payload.Trace,
		attempts: make([]int, len(split.Tasks)),
		interms:  make([]catalog.FileMeta, len(split.Tasks)),
	}, nil
}

var _ Executor = (*PlannedExecutor)(nil)
