package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the coordinator side of real multi-process CF execution: the
// plan is decomposed with the existing SplitForCF machinery, each task is
// serialized as a WorkerRequest and handed to a WorkerInvoker (a subprocess
// locally; the same seam fits a FaaS API), the workers exchange data through
// the object store as intermediate pixfiles, and the coordinator merges the
// intermediates through the normal scan path. Failed workers are retried
// with fresh attempt-numbered output keys, stragglers optionally get a
// speculative duplicate (Starling's duplicate-request mitigation), and only
// the winning attempt's stats count — billed bytes stay exactly what a
// serial run would bill.

// WorkerInvoker runs one worker attempt somewhere and returns its response.
// Implementations must be safe for concurrent use; the coordinator invokes
// every task (and speculative duplicates) in parallel. An attempt fails
// either by error or by a response carrying a non-empty Error; both are
// retried the same way.
type WorkerInvoker interface {
	Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error)
}

// LocalInvoker executes worker requests in-process against an engine. The
// request still round-trips through the full wire format — the fragment is
// decoded from req.Plan, not shared by pointer — so everything except the
// process boundary itself is exercised. When Store is set, the request runs
// against a fresh engine over that store instead (letting tests interpose a
// FaultStore on the worker side only).
type LocalInvoker struct {
	Engine *Engine
	Store  objstore.Store
}

// Invoke implements WorkerInvoker.
func (l *LocalInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	e := l.Engine
	if l.Store != nil {
		e = New(catalog.New(), l.Store)
		e.SetVectorized(l.Engine.Vectorized())
	}
	return e.ExecuteWorkerRequest(ctx, req), nil
}

// ProcessInvoker runs each worker attempt as a separate OS process speaking
// JSON over stdin/stdout — the local stand-in for a cloud-function
// invocation. Workers open their own store at StoreDir, so the coordinator
// must run over a disk store rooted there.
type ProcessInvoker struct {
	// Argv is the worker command. Tests pass their own test binary
	// (os.Args[0]) with an environment marker that routes main to
	// WorkerMain; production passes the pixels-worker binary.
	Argv []string
	// Env entries are appended to the inherited environment.
	Env []string
	// StoreDir is stamped into every request's StoreDir.
	StoreDir string
	// Fault, when set, is stamped into every request so workers wrap their
	// store in a FaultStore. FaultFor takes precedence when both are set,
	// letting a harness inject faults into chosen attempts only (e.g. only
	// attempt 0, so recovery is guaranteed yet provably exercised).
	Fault    *objstore.FaultConfig
	FaultFor func(req *WorkerRequest) *objstore.FaultConfig

	live atomic.Int64
}

// LiveProcesses reports worker processes currently running. Teardown tests
// assert it drains to zero after cancellation.
func (p *ProcessInvoker) LiveProcesses() int64 { return p.live.Load() }

// Invoke implements WorkerInvoker.
func (p *ProcessInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	if len(p.Argv) == 0 {
		return nil, fmt.Errorf("engine: ProcessInvoker has no command")
	}
	r := *req
	r.StoreDir = p.StoreDir
	if p.FaultFor != nil {
		r.Fault = p.FaultFor(&r)
	} else if p.Fault != nil {
		r.Fault = p.Fault
	}
	payload, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	cmd := osexec.CommandContext(ctx, p.Argv[0], p.Argv[1:]...)
	cmd.Env = append(os.Environ(), p.Env...)
	cmd.Stdin = bytes.NewReader(payload)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	p.live.Add(1)
	runErr := cmd.Run() // CommandContext kills the process on ctx cancel
	p.live.Add(-1)

	var resp WorkerResponse
	if err := json.Unmarshal(stdout.Bytes(), &resp); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if runErr != nil {
			return nil, fmt.Errorf("engine: worker process: %w (stderr: %s)", runErr, bytes.TrimSpace(stderr.Bytes()))
		}
		return nil, fmt.Errorf("engine: bad worker response: %w", err)
	}
	if resp.Error == "" && runErr != nil {
		resp.Error = runErr.Error()
	}
	return &resp, nil
}

// DistOptions configure a distributed run.
type DistOptions struct {
	// Parts is the worker count; <1 means one per CPU. Clamped to the
	// partitioned table's file count by the splitter.
	Parts int
	// Invoker runs worker attempts; nil means in-process LocalInvoker.
	Invoker WorkerInvoker
	// Retries is the extra attempts a failed task gets before the query
	// fails. Each retry writes to a fresh attempt-numbered key.
	Retries int
	// SpeculativeAfter, when positive, launches a duplicate attempt for any
	// task still running after this duration; the first attempt to finish
	// wins and the loser is cancelled. 0 disables speculation.
	SpeculativeAfter time.Duration
}

// distLive counts live coordinator goroutines (per-task supervisors and
// per-attempt invokers). Leak tests assert it drains to zero.
var distLive atomic.Int64

// DistributedGoroutines reports coordinator goroutines currently live. It
// exists for leak tests, mirroring PipelineGoroutines.
func DistributedGoroutines() int64 { return distLive.Load() }

// RunPlanDistributed executes a plan through the multi-process CF path:
// split, invoke one worker per task, merge the intermediate pixfiles the
// workers wrote to the object store. Plans that cannot be decomposed fall
// back to the serial RunPlan. Results, stats and billed bytes match the
// serial execution of the same plan (plus the BytesIntermediate /
// RowsScanned the intermediate exchange itself adds, exactly as the
// in-process CF path adds them).
func (e *Engine) RunPlanDistributed(ctx context.Context, node plan.Node, queryID string, opts DistOptions) (*Result, error) {
	if opts.Invoker == nil {
		opts.Invoker = &LocalInvoker{Engine: e}
	}
	parts := opts.Parts
	if parts < 1 {
		parts = DefaultParallelism(0)
	}
	// TopN on, SharedJoinBuild off: worker top-N writes bounded sorted
	// intermediates (merged k-way below), while shared-build joins cannot
	// cross a process boundary without re-billing the build side.
	split, err := e.SplitForCFOpts(node, queryID, parts, SplitOptions{TopN: true})
	if err != nil {
		return e.RunPlan(ctx, node)
	}
	return e.runSplitDistributed(ctx, split, opts)
}

// runSplitDistributed drives one split through the invoker and merges.
func (e *Engine) runSplitDistributed(ctx context.Context, split *CFSplit, opts DistOptions) (*Result, error) {
	ctx, dspan := obs.StartSpan(ctx, "exec:distributed")
	defer dspan.End()
	dspan.SetAttr("parts", len(split.Tasks))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(split.Tasks)
	resps := make([]*WorkerResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		distLive.Add(1)
		go func(task int) {
			defer wg.Done()
			defer distLive.Add(-1)
			tspan := dspan.StartChild(fmt.Sprintf("task:%d", task))
			resps[task], errs[task] = e.runTaskAttempts(obs.ContextWithSpan(wctx, tspan), split, task, opts)
			tspan.End()
			if errs[task] != nil {
				cancel() // abort sibling tasks
			}
		}(i)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
			continue
		}
		// A task cancelled by a sibling's failure surfaces
		// context.Canceled; prefer the root cause.
		if errors.Is(firstErr, context.Canceled) && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		// Failed queries still sweep whatever attempts managed to write.
		_, _ = objstore.DeletePrefix(e.store, objstore.IntermediatePrefix(split.QueryID))
		return nil, firstErr
	}

	// Winner-only accounting: exactly one response per task survives, so a
	// retried or duplicated task contributes one attempt's bytes — the same
	// bytes a fault-free run would bill.
	interms := make([]catalog.FileMeta, n)
	for i, r := range resps {
		interms[i] = r.Interm
	}
	res, err := e.MergeResults(ctx, split, interms)
	if err != nil {
		return nil, err
	}
	for _, r := range resps {
		res.Stats.Add(r.Stats)
	}
	return res, nil
}

// RunAttempt runs one attempt of one task of split through inv. It is the
// single attempt primitive of every CF driver: RunPlanDistributed's
// per-task supervisor and the serving path's scheduler-driven CF job both
// call it. The request carries the engine's vectorization setting and asks
// the worker for spans when ctx carries one; a worker-reported error comes
// back as the returned error, and a successful worker's spans graft under
// the ctx span. The attempt writes only its own attempt-numbered key under
// the query's intermediate prefix.
func (e *Engine) RunAttempt(ctx context.Context, inv WorkerInvoker, split *CFSplit, task, attempt int) (*WorkerResponse, error) {
	req, err := NewWorkerRequest(split, task, attempt)
	if err != nil {
		return nil, err
	}
	span := obs.SpanFrom(ctx)
	req.Interpreted = e.interp
	req.Trace = span != nil
	resp, err := inv.Invoke(ctx, req)
	if err == nil && resp.Error != "" {
		err = fmt.Errorf("engine: worker %d attempt %d: %s", task, attempt, resp.Error)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	span.Adopt(resp.Spans)
	resp.Spans = nil
	return resp, nil
}

// runTaskAttempts supervises one task: first attempt, retries on failure,
// and an optional speculative duplicate for stragglers. The first
// successful attempt wins. Exactly one attempt's response is returned, so
// its stats are counted once no matter how many attempts ran. Every return
// path cancels the attempts still in flight and waits for them: an attempt
// that outlived this call could write its intermediate after the caller
// swept the query's prefix.
func (e *Engine) runTaskAttempts(ctx context.Context, split *CFSplit, task int, opts DistOptions) (*WorkerResponse, error) {
	tctx, cancel := context.WithCancel(ctx)
	tspan := obs.SpanFrom(ctx)

	type attemptResult struct {
		resp *WorkerResponse
		err  error
		span *obs.Span
	}
	// Buffered for the worst case (all retries plus the speculative
	// duplicate), so no attempt ever blocks on its send.
	ch := make(chan attemptResult, opts.Retries+2)
	attempts, outstanding := 0, 0
	launch := func() {
		attempt := attempts
		attempts++
		outstanding++
		distLive.Add(1)
		// Attempt spans start detached: only attempts that report back
		// before the task settles are attached to the task span, so a
		// cancelled loser's span never appears in the trace.
		aspan := tspan.Detached(fmt.Sprintf("attempt:%d", attempt))
		go func() {
			defer distLive.Add(-1)
			resp, err := e.RunAttempt(obs.ContextWithSpan(tctx, aspan), opts.Invoker, split, task, attempt)
			aspan.End()
			ch <- attemptResult{resp, err, aspan}
		}()
	}
	defer func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}()
	launch()
	var speculate <-chan time.Time
	if opts.SpeculativeAfter > 0 {
		speculate = time.After(opts.SpeculativeAfter)
	}

	budget := opts.Retries
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-speculate:
			speculate = nil
			// Duplicate the straggler; does not consume retry budget.
			launch()
			obs.DistTaskSpeculativeTotal.Inc()
			tspan.Event("speculate", map[string]any{"attempt": attempts - 1})
		case r := <-ch:
			outstanding--
			tspan.Attach(r.span)
			if r.err == nil {
				return r.resp, nil
			}
			if budget > 0 && ctx.Err() == nil {
				budget--
				obs.DistTaskRetriesTotal.Inc()
				tspan.Event("retry", map[string]any{
					"attempt": attempts,
					"error":   r.err.Error(),
				})
				launch()
			} else if outstanding == 0 {
				// Retry budget exhausted: every attempt's intermediate key
				// is about to be swept by the caller's DeletePrefix — name
				// them in the error and the trace instead of failing
				// silently with only the last attempt's message.
				swept := make([]string, attempts)
				for a := range swept {
					swept[a] = intermAttemptKey(split.QueryID, task, a)
				}
				obs.DistTaskSweptKeysTotal.Add(int64(len(swept)))
				tspan.Event("retries-exhausted", map[string]any{
					"attempts":   attempts,
					"swept_keys": swept,
				})
				return nil, fmt.Errorf("engine: task %d failed after %d attempt(s), sweeping intermediates %v: %w",
					task, attempts, swept, r.err)
			}
		}
	}
}

// MergeResults is the coordinator-side merge over worker intermediates,
// shared by every CF driver. Top-N splits stream the k sorted
// intermediates through a k-way heap merge instead of re-sorting k·N rows;
// every other split runs its merge plan over the files in task order. On
// success and on failure it then sweeps the query's whole intermediate
// prefix — including orphans of failed or duplicated attempts — so callers
// must have seen every attempt return first. The returned stats cover the
// merge alone; callers add the winning attempts' worker stats.
func (e *Engine) MergeResults(ctx context.Context, split *CFSplit, interms []catalog.FileMeta) (*Result, error) {
	defer func() {
		_, _ = objstore.DeletePrefix(e.store, objstore.IntermediatePrefix(split.QueryID))
	}()
	ctx, mspan := obs.StartSpan(ctx, "merge")
	defer mspan.End()

	stats := &Stats{}
	mergePlan := split.mergePlan
	overrides := map[*plan.ScanNode]scanOverride{
		split.interm: {files: interms, interm: true},
	}
	if split.sortedMerge != nil {
		// Each file gets its own lazy reader; MergeSorted pulls them from
		// one goroutine, so the shared stats need no synchronization.
		mergePlan = split.sortedMerge
		streams := make([]exec.BatchIterator, len(interms))
		for i, m := range interms {
			streams[i] = e.newScanContext(ctx, split.interm, []catalog.FileMeta{m}, stats, true).sequential()
		}
		iter := exec.MergeSorted(streams, split.mergeKeys, split.workerPlan.Schema())
		overrides = map[*plan.ScanNode]scanOverride{split.interm: {iter: iter}}
	}
	op, err := exec.BuildWith(mergePlan, e.buildEnv(ctx, stats, overrides, nil, mspan))
	if err != nil {
		return nil, err
	}
	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return resultFromBatch(mergePlan.Schema(), out, *stats), nil
}
