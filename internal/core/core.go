// Package core implements the paper's primary contribution: the
// Pixels-Turbo coordinator that natively supports flexible performance
// service levels (Immediate, Relaxed, Best-of-effort) and prices through
// heterogeneous resource scheduling over an auto-scaled VM cluster and an
// elastic cloud-function (CF) service (Sections II and III).
//
// Scheduling semantics follow Section III-A verbatim. A submission derives
// two flags from its level: whether pending time is acceptable and whether
// CF acceleration is acceptable.
//
//   - Immediate  {pending:no,  cf:yes}: dispatch now; if the VM cluster has
//     no free slot, accelerate with CF workers.
//   - Relaxed    {pending:yes, cf:yes}: wait up to the grace period for a
//     VM slot, giving the cluster time to scale out; on expiry fall back
//     to CF. Pending time is bounded by the grace period.
//   - Best-of-effort {pending:yes, cf:no}: run only when the VM cluster
//     has an idle slot and no Relaxed query is waiting; never use CF and
//     never trigger scale-out.
package core

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// Status is a query's lifecycle state (the four statuses of Sec. IV-A(3)).
type Status string

// Query statuses.
const (
	StatusPending  Status = "pending"
	StatusRunning  Status = "running"
	StatusFinished Status = "finished"
	StatusFailed   Status = "failed"
)

// Query is one scheduled query.
type Query struct {
	ID    string
	Level billing.Level
	SQL   string // display text (SQL or workload descriptor)

	// Payload is executor-specific: a bound plan for the real executor, a
	// modeled workload for the simulated one.
	Payload any

	mu        sync.Mutex
	status    Status
	submitted time.Time
	started   time.Time
	ended     time.Time
	err       error
	result    *engine.Result
	stats     engine.Stats
	usedCF    bool
	usage     billing.ResourceUsage
	done      chan struct{}

	graceTimer    vclock.Timer
	coalesceKey   string
	coalescedWith *Query // leader whose execution this query shares
	canceled      bool

	// Result-cache state (see dispatch): cacheKey is set on the query
	// elected to fill a missing cache entry, cacheLeader on queries
	// waiting for that fill, cacheHit on queries answered from the cache
	// (including settled waiters).
	cacheKey    string
	cacheLeader *Query
	cacheHit    bool
}

// Status returns the current lifecycle state.
func (q *Query) Status() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.status
}

// Result returns the materialized result once finished (nil otherwise, and
// always nil under the simulated executor).
func (q *Query) Result() *engine.Result {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.result
}

// Err returns the failure cause, if any.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Done returns a channel closed when the query finishes or fails.
func (q *Query) Done() <-chan struct{} { return q.done }

// Times returns (submitted, started, ended); zero values where not yet
// reached.
func (q *Query) Times() (submitted, started, ended time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.submitted, q.started, q.ended
}

// UsedCF reports whether CF acceleration executed the query.
func (q *Query) UsedCF() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.usedCF
}

// Outcome is what an executor reports for a completed execution.
type Outcome struct {
	Err    error
	Stats  engine.Stats
	Result *engine.Result
}

// TaskOutcome is what one CF worker task reports.
type TaskOutcome struct {
	Err   error
	Stats engine.Stats
}

// CFJob is a query decomposed into CF worker tasks plus a merge step.
type CFJob interface {
	// NumTasks returns the worker count.
	NumTasks() int
	// RunTask executes task i, calling done exactly once (possibly
	// asynchronously, but always via the coordinator's clock in
	// simulation).
	RunTask(i int, done func(TaskOutcome))
	// Merge combines worker outputs into the final result after every
	// task succeeded, then releases them.
	Merge(done func(Outcome))
	// Abort releases whatever the attempts wrote when a task failed past
	// its retries. The coordinator calls exactly one of Merge and Abort,
	// and only once every attempt has returned.
	Abort()
}

// Executor abstracts query execution so the coordinator schedules real
// plans (PlannedExecutor, which runs CF tasks through the engine's attempt,
// merge and sweep code) and modeled workloads (SimExecutor) identically.
type Executor interface {
	// VMRun executes the whole query on one VM slot.
	VMRun(q *Query, done func(Outcome))
	// CFPlan splits the query into at most maxParts worker tasks.
	CFPlan(q *Query, maxParts int) (CFJob, error)
}

// Config parameterizes the coordinator.
type Config struct {
	// GracePeriod is the Relaxed queue bound (default 5 minutes, the
	// paper's example value).
	GracePeriod time.Duration
	// CFMaxParts caps CF workers per query (default 8).
	CFMaxParts int
	// CFTaskRetries is how many times a failed CF task is retried on a
	// fresh worker before the query fails (default 2).
	CFTaskRetries int
	// CoalesceIdentical enables the batch-query optimization the paper's
	// conclusion points at: a submission whose coalesce key matches an
	// in-flight query becomes a follower that shares the leader's single
	// execution (and is billed its own list price but zero resources).
	CoalesceIdentical bool
	// ResultCache, when set, serves repeat queries from cached results:
	// dispatch consults it (by the payload's ResultKey) before routing to
	// any execution tier, misses elect a single fill query others wait on
	// (single-flight), and successful fills populate it. A hit bills zero
	// bytes scanned — nothing was scanned.
	ResultCache ResultCache
	// SlowQueryThreshold, when positive, logs every query whose total
	// latency (submit to finish) reaches it — tier, phase timings, bytes
	// scanned and the SQL text.
	SlowQueryThreshold time.Duration
	// TraceStore, when set, retains finished queries' span trees (for
	// queries submitted with a trace) so the server can serve
	// GET /v1/query/{id}/trace after the fact.
	TraceStore *obs.TraceStore
	// Prices is the billing book.
	Prices billing.PriceBook
}

// ResultCache is the coordinator's seam to a materialized-result cache
// (implemented by internal/qcache.ResultCache). Get must return a
// hit-view result with Cached set and Stats reduced to RowsReturned;
// implementations are responsible for staleness (core never invalidates —
// qcache keys embed table generations, so stale entries are unreachable).
type ResultCache interface {
	Get(key string) (*engine.Result, bool)
	Put(key string, res *engine.Result)
}

func (c Config) withDefaults() Config {
	if c.GracePeriod <= 0 {
		c.GracePeriod = 5 * time.Minute
	}
	if c.CFMaxParts <= 0 {
		c.CFMaxParts = 8
	}
	if c.CFTaskRetries < 0 {
		c.CFTaskRetries = 0
	} else if c.CFTaskRetries == 0 {
		c.CFTaskRetries = 2
	}
	if c.Prices.ScanPricePerTB == 0 {
		c.Prices = billing.Default()
	}
	return c
}

// Coordinator is the long-running component of Pixels-Turbo: it manages
// query scheduling across the VM cluster and the CF service, collects
// execution statistics and writes the billing ledger.
type Coordinator struct {
	clock    vclock.Clock
	cfg      Config
	cluster  *vmsim.Cluster
	cf       *cfsim.Service
	executor Executor
	ledger   *billing.Ledger

	mu           sync.Mutex
	nextID       int
	queries      map[string]*Query
	relaxedQ     []*Query
	bestQ        []*Query
	runningCF    int // queries currently executing via CF (demand signal)
	runningVM    int
	runningVMBE  int // Best-of-effort queries on VM slots (hidden from demand)
	finished     int
	failed       int
	inflight     map[string]*Query   // coalesce key -> leader
	followers    map[*Query][]*Query // leader -> coalesced followers
	coalesced    int
	cacheFill    map[string]*Query   // result key -> in-flight fill query
	cacheWaiters map[string][]*Query // result key -> queries awaiting the fill
	cacheHits    int
}

// NewCoordinator wires the scheduler to its resources. The cluster's
// capacity events drive queue draining.
func NewCoordinator(clock vclock.Clock, cfg Config, cluster *vmsim.Cluster, cf *cfsim.Service, ex Executor, ledger *billing.Ledger) *Coordinator {
	c := &Coordinator{
		clock:        clock,
		cfg:          cfg.withDefaults(),
		cluster:      cluster,
		cf:           cf,
		executor:     ex,
		ledger:       ledger,
		queries:      make(map[string]*Query),
		inflight:     make(map[string]*Query),
		followers:    make(map[*Query][]*Query),
		cacheFill:    make(map[string]*Query),
		cacheWaiters: make(map[string][]*Query),
	}
	cluster.SetOnReady(c.drain)
	return c
}

// Ledger returns the billing ledger.
func (c *Coordinator) Ledger() *billing.Ledger { return c.ledger }

// Config returns the effective configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Submit schedules a query at a service level and returns its handle.
func (c *Coordinator) Submit(sqlText string, level billing.Level, payload any) *Query {
	return c.SubmitKeyed(sqlText, level, payload, "")
}

// SubmitKeyed schedules a query with an optional coalesce key (for
// example "database\x00sql"). When CoalesceIdentical is enabled and an
// in-flight query shares the key, this submission follows that leader's
// execution instead of starting its own.
func (c *Coordinator) SubmitKeyed(sqlText string, level billing.Level, payload any, key string) *Query {
	return c.SubmitReservedKeyed("", sqlText, level, payload, key)
}

// ReserveID allocates a query ID without submitting anything. The
// admission layer reserves IDs at enqueue time so a query keeps one stable
// ID across queued → running, and hands them back via SubmitReservedKeyed
// when the query is dispatched. Reserved IDs are never reused; an ID whose
// query is shed or canceled while queued simply never appears here.
func (c *Coordinator) ReserveID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return fmt.Sprintf("q-%06d", c.nextID)
}

// SubmitReservedKeyed is SubmitKeyed with a caller-reserved ID (empty =
// allocate one now).
func (c *Coordinator) SubmitReservedKeyed(id, sqlText string, level billing.Level, payload any, key string) *Query {
	c.mu.Lock()
	if id == "" {
		c.nextID++
		id = fmt.Sprintf("q-%06d", c.nextID)
	}
	q := &Query{
		ID:        id,
		Level:     level,
		SQL:       sqlText,
		Payload:   payload,
		status:    StatusPending,
		submitted: c.clock.Now(),
		done:      make(chan struct{}),
	}
	c.queries[q.ID] = q
	if c.cfg.CoalesceIdentical && key != "" {
		if leader, ok := c.inflight[key]; ok {
			leader.mu.Lock()
			alive := leader.status == StatusPending || leader.status == StatusRunning
			leader.mu.Unlock()
			if alive {
				q.coalescedWith = leader
				c.followers[leader] = append(c.followers[leader], q)
				c.coalesced++
				c.mu.Unlock()
				return q
			}
		}
		q.coalesceKey = key
		c.inflight[key] = q
	}
	c.mu.Unlock()

	c.dispatch(q)
	return q
}

// Get returns a query by ID.
func (c *Coordinator) Get(id string) (*Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, ok := c.queries[id]
	return q, ok
}

// Queries returns all known queries.
func (c *Coordinator) Queries() []*Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Query, 0, len(c.queries))
	for _, q := range c.queries {
		out = append(out, q)
	}
	return out
}

// dispatch routes a newly submitted query per its level's flags.
func (c *Coordinator) dispatch(q *Query) {
	// Result-cache fast path: before any tier routing, a hit finalizes
	// immediately (no VM slot, no CF, zero bytes billed) and a miss
	// elects exactly one fill query per key — concurrent identical
	// submissions wait for it instead of executing redundantly. The
	// lookup, waiter registration and fill election share c.mu with the
	// fill's completion in finalize, so there is no window where a second
	// execution can slip between a fill finishing and its Put landing.
	if rc := c.cfg.ResultCache; rc != nil {
		if pp, ok := q.Payload.(PlanPayload); ok && pp.ResultKey != "" && !c.cacheRouted(q) {
			c.mu.Lock()
			if res, ok := rc.Get(pp.ResultKey); ok {
				c.cacheHits++
				c.mu.Unlock()
				pp.Trace.Root().Event("result-cache-hit", nil)
				q.mu.Lock()
				q.cacheHit = true
				q.mu.Unlock()
				c.finalize(q, Outcome{Stats: res.Stats, Result: res})
				return
			}
			if leader := c.cacheFill[pp.ResultKey]; leader != nil {
				q.mu.Lock()
				q.cacheKey, q.cacheLeader = pp.ResultKey, leader
				q.mu.Unlock()
				c.cacheWaiters[pp.ResultKey] = append(c.cacheWaiters[pp.ResultKey], q)
				c.mu.Unlock()
				return
			}
			c.cacheFill[pp.ResultKey] = q
			q.mu.Lock()
			q.cacheKey = pp.ResultKey
			q.mu.Unlock()
			c.mu.Unlock()
		}
	}

	// Any level may run immediately when the VM cluster has capacity —
	// "relaxed or best-of-effort queries may be executed immediately if
	// the VM cluster is available" (Sec. III-B). Best-of-effort yields to
	// waiting Relaxed queries.
	c.mu.Lock()
	relaxedWaiting := len(c.relaxedQ) > 0
	c.mu.Unlock()

	if !(q.Level == billing.BestEffort && relaxedWaiting) {
		if lease, ok := c.cluster.TryAcquire(); ok {
			c.runOnVM(q, lease)
			return
		}
	}

	switch q.Level {
	case billing.Immediate:
		// No pending time acceptable: accelerate with CFs now.
		c.runOnCF(q)
	case billing.Relaxed:
		// Queue within the grace period; CF on expiry.
		c.mu.Lock()
		c.relaxedQ = append(c.relaxedQ, q)
		q.graceTimer = c.clock.AfterFunc(c.cfg.GracePeriod, func() { c.graceExpired(q) })
		c.mu.Unlock()
	case billing.BestEffort:
		// No guarantee: wait for an idle slot.
		c.mu.Lock()
		c.bestQ = append(c.bestQ, q)
		c.mu.Unlock()
	}
}

// cacheRouted reports whether the query already went through the cache
// fast path — a waiter promoted to fill leader is re-dispatched and must
// not re-enter it.
func (c *Coordinator) cacheRouted(q *Query) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cacheKey != "" || q.cacheLeader != nil
}

// graceExpired moves a still-pending Relaxed query to CF execution.
func (c *Coordinator) graceExpired(q *Query) {
	c.mu.Lock()
	if q.status != StatusPending {
		c.mu.Unlock()
		return
	}
	c.removeFromQueue(q)
	c.mu.Unlock()
	c.runOnCF(q)
}

// removeFromQueue drops q from whichever queue holds it (c.mu held).
func (c *Coordinator) removeFromQueue(q *Query) {
	for i, p := range c.relaxedQ {
		if p == q {
			c.relaxedQ = append(c.relaxedQ[:i], c.relaxedQ[i+1:]...)
			return
		}
	}
	for i, p := range c.bestQ {
		if p == q {
			c.bestQ = append(c.bestQ[:i], c.bestQ[i+1:]...)
			return
		}
	}
}

// drain dispatches queued queries when capacity appears: Relaxed first
// (FIFO), then Best-of-effort while the cluster stays idle enough.
func (c *Coordinator) drain() {
	for {
		c.mu.Lock()
		var q *Query
		switch {
		case len(c.relaxedQ) > 0:
			q = c.relaxedQ[0]
		case len(c.bestQ) > 0:
			q = c.bestQ[0]
		}
		if q == nil {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		lease, ok := c.cluster.TryAcquire()
		if !ok {
			return
		}
		c.mu.Lock()
		// Re-check: the query may have been grabbed by a grace expiry.
		if q.status != StatusPending {
			c.mu.Unlock()
			lease.Release()
			continue
		}
		c.removeFromQueue(q)
		if q.graceTimer != nil {
			q.graceTimer.Stop()
			q.graceTimer = nil
		}
		c.mu.Unlock()
		c.runOnVM(q, lease)
	}
}

// runOnVM executes q on one VM slot.
func (c *Coordinator) runOnVM(q *Query, lease *vmsim.Lease) {
	now := c.clock.Now()
	q.mu.Lock()
	q.status = StatusRunning
	q.started = now
	q.mu.Unlock()
	c.mu.Lock()
	c.runningVM++
	if q.Level == billing.BestEffort {
		c.runningVMBE++
	}
	c.mu.Unlock()

	c.executor.VMRun(q, func(out Outcome) {
		end := c.clock.Now()
		execSeconds := end.Sub(q.started).Seconds()
		q.mu.Lock()
		// VM attribution: one slot for the execution duration, expressed
		// in VM-equivalent seconds.
		q.usage.VMSeconds += execSeconds / float64(c.cfg.Prices.VMSlots)
		q.usage.S3Gets += int64(out.Stats.RowGroupsRead)
		q.mu.Unlock()
		lease.Release()
		c.mu.Lock()
		c.runningVM--
		if q.Level == billing.BestEffort {
			c.runningVMBE--
		}
		c.mu.Unlock()
		c.finalize(q, out)
	})
}

// runOnCF executes q through CF workers plus a coordinator-side merge.
func (c *Coordinator) runOnCF(q *Query) {
	now := c.clock.Now()
	q.mu.Lock()
	q.status = StatusRunning
	q.started = now
	q.usedCF = true
	q.mu.Unlock()
	c.mu.Lock()
	c.runningCF++
	c.mu.Unlock()

	job, err := c.executor.CFPlan(q, c.cfg.CFMaxParts)
	if err != nil {
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, Outcome{Err: err})
		return
	}

	n := job.NumTasks()
	var jobMu sync.Mutex
	remaining := n
	var taskStats engine.Stats
	var jobErr error
	settled := false

	var launch func(task, attempt int)
	taskDone := func(task, attempt int, inv *cfsim.Invocation, out TaskOutcome) {
		failed := out.Err != nil || inv.WillFail
		if failed {
			inv.Fail()
		} else {
			inv.Finish()
		}
		// Attribute CF usage to the query.
		dur := c.clock.Now().Sub(inv.Started).Seconds()
		q.mu.Lock()
		q.usage.CFGBSeconds += dur * c.cf.Config().MemoryGB
		q.usage.CFInvocations++
		q.mu.Unlock()

		if failed {
			if attempt < c.cfg.CFTaskRetries {
				launch(task, attempt+1)
				return
			}
			err := out.Err
			if err == nil {
				err = fmt.Errorf("core: CF worker failed (task %d after %d attempts)", task, attempt+1)
			}
			jobMu.Lock()
			if jobErr == nil {
				jobErr = err
			}
			remaining--
			done := remaining == 0
			jobMu.Unlock()
			if done {
				c.settleCF(q, job, &jobMu, &settled, &taskStats, jobErr)
			}
			return
		}

		jobMu.Lock()
		taskStats.Add(out.Stats)
		remaining--
		done := remaining == 0
		err := jobErr
		jobMu.Unlock()
		if done {
			c.settleCF(q, job, &jobMu, &settled, &taskStats, err)
		}
	}

	launch = func(task, attempt int) {
		c.cf.Request(func(inv *cfsim.Invocation) {
			job.RunTask(task, func(out TaskOutcome) {
				taskDone(task, attempt, inv, out)
			})
		})
	}
	for i := 0; i < n; i++ {
		launch(i, 0)
	}
}

// settleCF finishes a CF-executed query after all tasks completed.
func (c *Coordinator) settleCF(q *Query, job CFJob, jobMu *sync.Mutex, settled *bool, taskStats *engine.Stats, jobErr error) {
	jobMu.Lock()
	if *settled {
		jobMu.Unlock()
		return
	}
	*settled = true
	stats := *taskStats
	jobMu.Unlock()

	if jobErr != nil {
		job.Abort()
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, Outcome{Err: jobErr, Stats: stats})
		return
	}
	job.Merge(func(out Outcome) {
		out.Stats.Add(stats)
		if out.Result != nil {
			// The result reports the whole query's work, as a VM run's
			// does: the merge's stats plus the winning tasks'.
			out.Result.Stats = out.Stats
		}
		q.mu.Lock()
		q.usage.S3Puts += int64(job.NumTasks()) // intermediate writes
		q.usage.S3Gets += int64(out.Stats.RowGroupsRead)
		q.mu.Unlock()
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, out)
	})
}

// finalize records the outcome, writes the bill and closes the handle.
func (c *Coordinator) finalize(q *Query, out Outcome) {
	end := c.clock.Now()
	q.mu.Lock()
	q.ended = end
	if q.started.IsZero() {
		// The query never took a slot of its own — a result-cache hit, a
		// waiter settled from a fill, or a cancel while still pending.
		// Its whole life was pending; execution was instantaneous.
		q.started = end
	}
	q.stats = out.Stats
	q.result = out.Result
	if out.Err != nil {
		q.status = StatusFailed
		q.err = out.Err
	} else {
		q.status = StatusFinished
	}
	bill := billing.QueryBill{
		QueryID:      q.ID,
		Level:        q.Level,
		SQL:          q.SQL,
		SubmitTime:   q.submitted,
		StartTime:    q.started,
		EndTime:      q.ended,
		BytesScanned: out.Stats.BytesScanned,
		RowsReturned: out.Stats.RowsReturned,
		UsedCF:       q.usedCF,
		Usage:        q.usage,
		CacheHit:     q.cacheHit,
	}
	if out.Err != nil {
		bill.Status = "failed"
		bill.Error = out.Err.Error()
	} else {
		bill.Status = "finished"
	}
	bill.ListPrice = c.cfg.Prices.ListPrice(q.Level, bill.BytesScanned)
	bill.ResourceCost = c.cfg.Prices.Cost(q.usage)
	q.mu.Unlock()

	c.mu.Lock()
	if out.Err != nil {
		c.failed++
	} else {
		c.finished++
	}
	c.mu.Unlock()

	if c.ledger != nil {
		c.ledger.Append(bill)
	}
	c.observeFinished(q, bill)
	close(q.done)

	// Settle coalesced followers with the shared outcome, and — for a
	// result-cache fill — publish the result and settle cache waiters.
	// Put and waiter collection happen under c.mu, the same lock the
	// dispatch fast path holds for its Get-or-register step, so a new
	// submission either sees the cached result or becomes the next fill;
	// it can never re-execute a query whose fill just completed.
	c.mu.Lock()
	fs := c.followers[q]
	delete(c.followers, q)
	if q.coalesceKey != "" && c.inflight[q.coalesceKey] == q {
		delete(c.inflight, q.coalesceKey)
	}
	var waiters []*Query
	q.mu.Lock()
	ck := q.cacheKey
	q.mu.Unlock()
	if ck != "" && c.cacheFill[ck] == q {
		if out.Err == nil && out.Result != nil && c.cfg.ResultCache != nil {
			c.cfg.ResultCache.Put(ck, out.Result)
		}
		delete(c.cacheFill, ck)
		waiters = c.cacheWaiters[ck]
		delete(c.cacheWaiters, ck)
		c.cacheHits += len(waiters)
	}
	c.mu.Unlock()
	for _, f := range fs {
		c.finalizeFollower(f, out)
	}
	if len(waiters) > 0 {
		// Success settles waiters as cache hits (shared rows, zero bytes
		// billed); failure propagates the error without charging them for
		// bytes the fill scanned before dying.
		hitOut := Outcome{Err: out.Err}
		if out.Err == nil && out.Result != nil {
			hit := cachedView(out.Result)
			hitOut = Outcome{Stats: hit.Stats, Result: hit}
		}
		for _, w := range waiters {
			if hitOut.Err == nil {
				w.mu.Lock()
				w.cacheHit = true
				w.mu.Unlock()
			}
			c.finalize(w, hitOut)
		}
	}
}

// observeFinished records a finished (or failed) query into the process
// metrics, closes out its trace, and emits the threshold-gated slow-query
// log line. Called once per query, right before its done channel closes.
func (c *Coordinator) observeFinished(q *Query, bill billing.QueryBill) {
	tier := q.Level.String()
	execSec := bill.EndTime.Sub(bill.StartTime).Seconds()
	pendSec := bill.StartTime.Sub(bill.SubmitTime).Seconds()
	obs.QueriesTotal.Inc(tier, bill.Status)
	obs.QueryExecSeconds.Observe(execSec, tier)
	obs.QueryPendingSeconds.Observe(pendSec, tier)
	obs.BilledBytesTotal.Add(bill.BytesScanned, tier)

	if tr := queryTrace(q); tr != nil {
		root := tr.Root()
		root.SetAttr("query_id", q.ID)
		root.SetAttr("tier", tier)
		root.SetAttr("status", bill.Status)
		root.SetAttr("used_cf", bill.UsedCF)
		root.SetAttr("cache_hit", bill.CacheHit)
		root.SetAttr("bytes_scanned", bill.BytesScanned)
		root.SetAttr("rows_returned", bill.RowsReturned)
		root.End()
		c.cfg.TraceStore.Put(q.ID, tr.Data())
	}

	if th := c.cfg.SlowQueryThreshold; th > 0 {
		if total := bill.EndTime.Sub(bill.SubmitTime); total >= th {
			log.Printf("pixels: slow query %s [%s] total=%v pending=%.3fs exec=%.3fs scanned=%dB status=%s sql=%q",
				q.ID, tier, total.Round(time.Millisecond), pendSec, execSec,
				bill.BytesScanned, bill.Status, q.SQL)
		}
	}
}

// queryTrace extracts the trace a submission carried, if any.
func queryTrace(q *Query) *obs.Trace {
	if pp, ok := q.Payload.(PlanPayload); ok {
		return pp.Trace
	}
	return nil
}

// cachedView wraps a just-filled result the way a cache hit reads: rows
// shared, stats reduced to the rows returned (a hit scans nothing, so it
// bills nothing), the fill's stats preserved as Origin.
func cachedView(res *engine.Result) *engine.Result {
	origin := res.Stats
	return &engine.Result{
		Columns: res.Columns,
		Types:   res.Types,
		Rows:    res.Rows,
		Stats:   engine.Stats{RowsReturned: int64(len(res.Rows))},
		Cached:  true,
		Origin:  &origin,
	}
}

// finalizeFollower settles a coalesced follower: it shares the leader's
// result and statistics, pays its own list price, and consumed no
// resources of its own.
func (c *Coordinator) finalizeFollower(f *Query, out Outcome) {
	end := c.clock.Now()
	f.mu.Lock()
	f.started = end // never executed on its own
	f.ended = end
	f.stats = out.Stats
	f.result = out.Result
	if out.Err != nil {
		f.status = StatusFailed
		f.err = out.Err
	} else {
		f.status = StatusFinished
	}
	bill := billing.QueryBill{
		QueryID:      f.ID,
		Level:        f.Level,
		SQL:          f.SQL,
		SubmitTime:   f.submitted,
		StartTime:    f.started,
		EndTime:      f.ended,
		BytesScanned: out.Stats.BytesScanned,
		RowsReturned: out.Stats.RowsReturned,
		Coalesced:    true,
	}
	if out.Err != nil {
		bill.Status = "failed"
		bill.Error = out.Err.Error()
	} else {
		bill.Status = "finished"
	}
	bill.ListPrice = c.cfg.Prices.ListPrice(f.Level, bill.BytesScanned)
	f.mu.Unlock()

	c.mu.Lock()
	if out.Err != nil {
		c.failed++
	} else {
		c.finished++
	}
	c.mu.Unlock()
	if c.ledger != nil {
		c.ledger.Append(bill)
	}
	c.observeFinished(f, bill)
	close(f.done)
}

// ErrNotPending is returned by Cancel for queries that already started.
var ErrNotPending = fmt.Errorf("core: query is not pending")

// Cancel aborts a pending query: it is removed from its queue (or from its
// leader's followers) and finalized as failed with a cancellation error.
// Running queries cannot be canceled.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	q, ok := c.queries[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("core: query %q not found", id)
	}
	q.mu.Lock()
	if q.status != StatusPending {
		status := q.status
		q.mu.Unlock()
		c.mu.Unlock()
		return fmt.Errorf("%w (%s is %s)", ErrNotPending, id, status)
	}
	q.canceled = true
	q.mu.Unlock()

	var promote, promoteFill *Query
	if leader := q.coalescedWith; leader != nil {
		// Drop the follower from its leader.
		fs := c.followers[leader]
		for i, f := range fs {
			if f == q {
				c.followers[leader] = append(fs[:i], fs[i+1:]...)
				break
			}
		}
	} else {
		c.removeFromQueue(q)
		if q.graceTimer != nil {
			q.graceTimer.Stop()
			q.graceTimer = nil
		}
		// A canceled pending leader promotes its first follower.
		if q.coalesceKey != "" && c.inflight[q.coalesceKey] == q {
			delete(c.inflight, q.coalesceKey)
			if fs := c.followers[q]; len(fs) > 0 {
				promote = fs[0]
				rest := fs[1:]
				delete(c.followers, q)
				promote.coalescedWith = nil
				promote.coalesceKey = q.coalesceKey
				c.inflight[q.coalesceKey] = promote
				if len(rest) > 0 {
					c.followers[promote] = rest
				}
			}
		}
	}
	// Result-cache bookkeeping: a canceled waiter leaves the waiter list;
	// a canceled still-pending fill query hands the fill to its first
	// waiter so the others are not stranded.
	q.mu.Lock()
	ck, cl := q.cacheKey, q.cacheLeader
	q.mu.Unlock()
	if ck != "" {
		if cl != nil {
			ws := c.cacheWaiters[ck]
			for i, w := range ws {
				if w == q {
					c.cacheWaiters[ck] = append(ws[:i], ws[i+1:]...)
					break
				}
			}
		} else if c.cacheFill[ck] == q {
			delete(c.cacheFill, ck)
			if ws := c.cacheWaiters[ck]; len(ws) > 0 {
				promoteFill = ws[0]
				c.cacheWaiters[ck] = ws[1:]
				c.cacheFill[ck] = promoteFill
				promoteFill.mu.Lock()
				promoteFill.cacheLeader = nil
				promoteFill.mu.Unlock()
			}
		}
	}
	c.mu.Unlock()

	c.finalize(q, Outcome{Err: fmt.Errorf("core: canceled by user")})
	if promote != nil {
		c.dispatch(promote)
	}
	if promoteFill != nil {
		c.dispatch(promoteFill)
	}
	return nil
}

// CoalescedCount reports how many submissions were coalesced onto an
// in-flight identical query.
func (c *Coordinator) CoalescedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Coalesced reports whether the query shared another query's execution.
func (q *Query) Coalesced() bool { return q.coalescedWith != nil }

// CacheHit reports whether the query was answered from the result cache
// (directly, or by waiting on an in-flight fill).
func (q *Query) CacheHit() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cacheHit
}

// CacheHitCount reports how many queries were answered from the result
// cache since startup.
func (c *Coordinator) CacheHitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheHits
}

// Metrics supplies the autoscaler's demand signal. Only Immediate and
// Relaxed work is visible: pending Relaxed queries plus queries that had
// to fall back to CF count as unmet demand, while Best-of-effort work —
// queued or already holding an idle slot — is invisible and never triggers
// scale-out (Sec. III-B(3)).
func (c *Coordinator) Metrics() autoscale.Metrics {
	s := c.cluster.Snapshot()
	c.mu.Lock()
	demand := len(c.relaxedQ) + c.runningCF
	busy := s.BusySlots - c.runningVMBE
	c.mu.Unlock()
	if busy < 0 {
		busy = 0
	}
	return autoscale.Metrics{
		Time:         s.Time,
		Running:      s.Running,
		Booting:      s.Booting,
		TotalSlots:   s.TotalSlots,
		BusySlots:    busy,
		QueuedDemand: demand,
		Utilization:  s.Utilization,
	}
}

// QueueDepths reports (relaxed, bestEffort) queue lengths.
func (c *Coordinator) QueueDepths() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.relaxedQ), len(c.bestQ)
}

// Counts reports (finished, failed) query totals.
func (c *Coordinator) Counts() (finished, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished, c.failed
}
