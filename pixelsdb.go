// Package pixelsdb is the embedded public API of the PixelsDB
// reproduction: a serverless, NL-aided analytic database with flexible
// service levels and prices.
//
// A DB bundles the whole system: the columnar query engine over an object
// store, the Pixels-Turbo coordinator scheduling queries at three service
// levels (Immediate, Relaxed, Best-of-effort) across a simulated VM
// cluster and cloud-function service, the autoscaler, the billing ledger,
// and the pluggable text-to-SQL service.
//
// Quickstart:
//
//	db, _ := pixelsdb.Open(pixelsdb.Options{})
//	defer db.Close()
//	_ = db.LoadSampleData("tpch", 0.01)
//	q, _ := db.Submit("tpch", "SELECT COUNT(*) FROM orders", pixelsdb.Relaxed)
//	<-q.Done()
//	res := q.Result()
package pixelsdb

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// Service levels, re-exported for callers.
const (
	Immediate  = billing.Immediate
	Relaxed    = billing.Relaxed
	BestEffort = billing.BestEffort
)

// Level is a query's service level.
type Level = billing.Level

// Result is a materialized query result.
type Result = engine.Result

// Query is a scheduled query handle.
type Query = core.Query

// Options configure Open.
type Options struct {
	// DataDir persists tables and catalog on disk; empty keeps everything
	// in memory.
	DataDir string
	// InitialVMs is the warm cluster size (default 2).
	InitialVMs int
	// GracePeriod bounds Relaxed pending time (default 5 minutes).
	GracePeriod time.Duration
	// Parallelism is the VM-side intra-query worker width: queries that run
	// on a VM slot partition their dominant scan across this many
	// in-process workers (0 = one per CPU, 1 = serial). The split also
	// parallelizes the merge side — single-join plans probe one shared
	// build-side hash table from every worker, and ORDER BY + LIMIT plans
	// run a bounded per-worker top-N — with results and billed
	// bytes-scanned identical to serial execution. Service-level
	// scheduling decides where a query runs; this decides how wide.
	Parallelism int
	// CacheSize enables the object-store read cache in front of every
	// engine read (internal/objstore/cache): a block LRU of this many
	// bytes plus a footer cache and sequential read-ahead. 0 disables the
	// cache — every read pays a store request, the paper's baseline.
	// Billed bytes-scanned are identical either way.
	CacheSize int64
	// CacheReadAhead is the read-ahead depth in blocks once a scan is
	// detected as sequential (0 = default of 2 when the cache is enabled;
	// negative disables prefetching). Ignored when CacheSize is 0.
	CacheReadAhead int
	// ScanPrefetch is how many row groups ahead a fully-draining table
	// scan fetches and decodes in its pipelined stage (0 = engine default,
	// negative = disable the pipeline; scans then decode synchronously).
	// Prefetching never changes results or billed bytes-scanned: it only
	// applies to scans proven to drain completely, and batches are
	// delivered in file/row-group order.
	ScanPrefetch int
	// ScanBudget bounds the process-wide scan-prefetch decode concurrency:
	// at most this many pipeline decode workers (beyond one guaranteed
	// worker per scan) run at once across every query, so parallel workers
	// × prefetch depth cannot oversubscribe small hosts. 0 keeps the
	// current process setting (default: one token per CPU); negative
	// removes the bound. The budget is process-wide state shared by every
	// DB in the process.
	ScanBudget int
	// ParallelBudget bounds the process-wide intra-query parallelism: at
	// most this many extra workers (beyond one guaranteed worker per query)
	// run at once across every concurrent query, so overlapping parallel
	// queries divide the host instead of multiplying Parallelism by the
	// query count. Acquisition never blocks — a query that finds the pool
	// dry just runs narrower, with identical results and billed bytes. 0
	// keeps the current process setting (default: one token per CPU);
	// negative removes the bound. Process-wide state shared by every DB in
	// the process.
	ParallelBudget int
	// CFExecution selects how cloud-function worker fragments execute when
	// the scheduler routes a query to the CF tier:
	//
	//	"" or "inprocess" — an in-process invoker (engine.LocalInvoker):
	//	each worker attempt is the same serialized WorkerRequest, writing
	//	the same attempt-numbered intermediate key, executed in this
	//	process against the coordinator's store (the default; fastest for
	//	an embedded DB).
	//	"process"         — each worker attempt runs as a separate
	//	pixels-worker OS process: the fragment crosses a real process
	//	boundary and the shuffle goes through the object store, exactly
	//	like a real FaaS tier. Requires DataDir (processes cannot share an
	//	in-memory store).
	//
	// Both modes run the engine's one CF driver: results, statistics and
	// billed bytes-scanned are identical; the coordinator retries failed
	// worker attempts in either, and a query's intermediates are swept
	// whether it succeeds or fails.
	CFExecution string
	// CFWorkerCmd is the worker command for CFExecution "process"
	// (default: "pixels-worker", resolved via PATH).
	CFWorkerCmd []string
	// NoVectorize disables the vectorized expression kernels
	// (internal/vec): scan filters, executor filters and projections then
	// evaluate row-at-a-time. Results, stats and billed bytes are
	// bit-identical either way; the switch exists for the
	// interpreted-vs-vectorized ablation and as an escape hatch.
	NoVectorize bool
	// Coalesce enables batch query optimization: identical in-flight
	// queries share one execution.
	Coalesce bool
	// PlanCache enables the normalized plan cache (internal/qcache level
	// 1): SELECT submissions are normalized (whitespace/case/keyword
	// canonicalization, literals parameterized) and repeats reuse the
	// cached bound plan, skipping parse+bind+plan. Plans are re-validated
	// against catalog table generations on every hit, so DDL/INSERT
	// invalidates immediately. Default off to preserve the paper's
	// calibration.
	PlanCache bool
	// ResultCacheMB enables the result cache (internal/qcache level 2): a
	// byte-budgeted LRU of materialized results keyed on plan fingerprint
	// + referenced-table generations, consulted by the coordinator before
	// any execution tier with single-flight fills. A hit returns stored
	// rows without touching the object store and bills zero bytes
	// scanned. 0 disables (the default).
	ResultCacheMB int
	// Admission enables service-level admission control in front of the
	// Query Server: per-tier bounded queues, deadline-aware (EDF)
	// dispatch with cross-tier priority, per-tier concurrency slots and
	// load shedding (cheap tiers shed first with 429 + Retry-After).
	// Nil leaves the server in direct-submit mode; a zero-valued Config
	// enables admission with the built-in defaults. Only the REST
	// surface is gated — the embedded Submit still goes straight to the
	// coordinator.
	Admission *admission.Config
	// Tracing enables per-query span tracing: every REST submission
	// carries an obs.Trace from submit through admission, planning and
	// execution (per-operator, per-worker and per-attempt spans), and
	// finished traces are retained in an LRU served by
	// GET /v1/query/{id}/trace. Off by default: the disabled path costs
	// a nil check per instrumentation point, and results, stats and
	// billed bytes are bit-identical either way.
	Tracing bool
	// TraceCapacity bounds the finished-trace LRU (0 = 256). Ignored
	// unless Tracing is on.
	TraceCapacity int
	// SlowQueryThreshold logs any query whose submit-to-finish time
	// meets the threshold (one line: id, tier, pending/exec split,
	// bytes, SQL). 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
	// Metrics mounts GET /metrics (Prometheus text format) on the REST
	// handler: query/latency/billing instruments, admission depths,
	// cache counters. The registry records regardless; this only gates
	// the scrape route.
	Metrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/ on the REST
	// handler (opt-in; never on by default).
	Pprof bool
	// AdmissionAutoscaleInterval runs the scaling manager over the
	// admission slot pool (the same target-utilization policy that sizes
	// the VM fleet, driving serving concurrency instead); zero disables
	// it. Ignored unless Admission is set.
	AdmissionAutoscaleInterval time.Duration
	// Autoscale enables the scaling manager (target-utilization policy
	// with lazy scale-in) at the given interval; zero disables it.
	AutoscaleInterval time.Duration
	// MinVMs/MaxVMs bound the autoscaler (defaults 0/16).
	MinVMs, MaxVMs int
	// VM and CF override the simulator configs.
	VM vmsim.Config
	CF cfsim.Config
	// Prices overrides the billing book.
	Prices *billing.PriceBook
	// Translator overrides the text-to-SQL service (default the template
	// semantic parser).
	Translator nl2sql.Translator
	// Seed drives all randomness (failure injection, sample data).
	Seed int64
}

// DB is an open PixelsDB instance.
type DB struct {
	opts    Options
	clock   vclock.Clock
	store   *objstore.Metered
	cache   *cache.CachingStore // nil when Options.CacheSize == 0
	catalog *catalog.Catalog
	engine  *engine.Engine
	cluster *vmsim.Cluster
	cf      *cfsim.Service
	coord   *core.Coordinator
	ledger  *billing.Ledger
	scaler  *autoscale.Manager
	adm     *admission.Controller
	admScal *autoscale.Manager
	xlator  nl2sql.Translator
	qcache  *qcache.Cache   // nil unless PlanCache or ResultCacheMB enabled
	traces  *obs.TraceStore // nil unless Tracing enabled
}

// Open builds the full system.
func Open(opts Options) (*DB, error) {
	if opts.InitialVMs <= 0 {
		opts.InitialVMs = 2
	}
	if opts.MaxVMs <= 0 {
		opts.MaxVMs = 16
	}
	var backing objstore.Store
	if opts.DataDir != "" {
		disk, err := objstore.NewDisk(opts.DataDir)
		if err != nil {
			return nil, err
		}
		backing = disk
	} else {
		backing = objstore.NewMemory()
	}
	store := objstore.NewMetered(backing)
	cat := catalog.New()
	if opts.DataDir != "" {
		if err := cat.Load(store.Inner()); err != nil {
			return nil, fmt.Errorf("pixelsdb: load catalog: %w", err)
		}
	}
	clk := vclock.NewReal()
	// Engine reads go through the optional read cache; metering sits
	// beneath it, so Usage counts physical store requests (cache hits are
	// the requests the store never saw) while billed bytes-scanned stay
	// reader-side and cache-independent.
	var engineStore objstore.Store = store
	var rcache *cache.CachingStore
	if opts.CacheSize > 0 {
		rcache = cache.New(store, cache.Config{
			Capacity:  opts.CacheSize,
			ReadAhead: opts.CacheReadAhead,
		})
		store.AttachCache(rcache)
		engineStore = rcache
	}
	eng := engine.New(cat, engineStore)
	eng.SetScanPrefetch(opts.ScanPrefetch)
	eng.SetVectorized(!opts.NoVectorize)
	if opts.ScanBudget != 0 {
		engine.SetPrefetchBudget(opts.ScanBudget)
	}
	if opts.ParallelBudget != 0 {
		engine.SetParallelBudget(opts.ParallelBudget)
	}
	cluster := vmsim.NewCluster(clk, opts.VM, opts.InitialVMs)
	cf := cfsim.NewService(clk, opts.CF)
	ledger := billing.NewLedger()
	coreCfg := core.Config{
		GracePeriod:        opts.GracePeriod,
		CoalesceIdentical:  opts.Coalesce,
		SlowQueryThreshold: opts.SlowQueryThreshold,
	}
	if opts.Prices != nil {
		coreCfg.Prices = *opts.Prices
	}
	var traces *obs.TraceStore
	if opts.Tracing {
		traces = obs.NewTraceStore(opts.TraceCapacity)
		coreCfg.TraceStore = traces
	}
	var qc *qcache.Cache
	if opts.PlanCache || opts.ResultCacheMB > 0 {
		planEntries := 0
		if opts.PlanCache {
			planEntries = 256
		}
		qc = qcache.New(qcache.Config{
			Catalog:     cat,
			Planner:     eng.PlanQuery,
			PlanEntries: planEntries,
			ResultBytes: int64(opts.ResultCacheMB) << 20,
		})
		// Assign through the concrete check: a typed-nil *ResultCache in
		// the interface would read as "cache on" to the coordinator.
		if rc := qc.Results(); rc != nil {
			coreCfg.ResultCache = rc
		}
	}
	var cfInvoker engine.WorkerInvoker
	switch opts.CFExecution {
	case "", "inprocess":
	case "process":
		if opts.DataDir == "" {
			return nil, fmt.Errorf("pixelsdb: CFExecution %q requires DataDir (worker processes cannot share an in-memory store)", opts.CFExecution)
		}
		argv := opts.CFWorkerCmd
		if len(argv) == 0 {
			argv = []string{"pixels-worker"}
		}
		cfInvoker = &engine.ProcessInvoker{Argv: argv, StoreDir: opts.DataDir}
	default:
		return nil, fmt.Errorf("pixelsdb: unknown CFExecution %q (want \"inprocess\" or \"process\")", opts.CFExecution)
	}
	coord := core.NewCoordinator(clk, coreCfg, cluster, cf,
		&core.PlannedExecutor{Engine: eng, Parallelism: opts.Parallelism, CFInvoker: cfInvoker}, ledger)

	xlator := opts.Translator
	if xlator == nil {
		xlator = &nl2sql.Template{}
	}

	db := &DB{
		opts: opts, clock: clk, store: store, cache: rcache, catalog: cat, engine: eng,
		cluster: cluster, cf: cf, coord: coord, ledger: ledger, xlator: xlator, qcache: qc,
		traces: traces,
	}
	if opts.AutoscaleInterval > 0 {
		policy := &autoscale.TargetUtilization{
			SlotsPerVM: cluster.Config().SlotsPerVM,
			Target:     0.7,
			MinVMs:     opts.MinVMs,
			MaxVMs:     opts.MaxVMs,
			HoldTicks:  3,
		}
		db.scaler = autoscale.NewManager(clk, cluster, policy, coord.Metrics)
		db.scaler.Start(opts.AutoscaleInterval)
	}
	if opts.Admission != nil {
		db.adm = admission.New(clk, *opts.Admission)
		if opts.AdmissionAutoscaleInterval > 0 {
			cfg := db.adm.Config()
			policy := &autoscale.TargetUtilization{
				SlotsPerVM: 1, // pool units are single serving slots
				Target:     0.7,
				MinVMs:     cfg.MinSlots,
				MaxVMs:     cfg.MaxSlots,
				HoldTicks:  3,
			}
			db.admScal = autoscale.NewManager(clk, db.adm.Pool(), policy, db.adm.AutoscaleMetrics)
			db.admScal.Start(opts.AdmissionAutoscaleInterval)
		}
	}
	return db, nil
}

// Close stops background components and persists the catalog when a
// DataDir is configured.
func (db *DB) Close() error {
	if db.scaler != nil {
		db.scaler.Stop()
	}
	if db.admScal != nil {
		db.admScal.Stop()
	}
	if db.opts.DataDir != "" {
		return db.catalog.Save(db.store.Inner())
	}
	return nil
}

// Execute runs any statement synchronously, bypassing the scheduler (DDL,
// inserts, administrative queries).
func (db *DB) Execute(ctx context.Context, database, sqlText string) (*Result, error) {
	return db.engine.Execute(ctx, database, sqlText)
}

// Submit schedules a SELECT at a service level and returns its handle.
// With PlanCache/ResultCacheMB enabled, planning goes through the
// repeat-traffic cache: repeats of a normalized statement skip
// parse+bind+plan, and the coordinator may answer from the result cache
// without executing at all.
func (db *DB) Submit(database, sqlText string, level Level) (*Query, error) {
	var tr *obs.Trace
	if db.opts.Tracing {
		tr = obs.NewTrace("", "query")
	}
	pspan := tr.Root().StartChild("plan")
	payload, key, err := db.planForSubmit(database, sqlText)
	pspan.End()
	if err != nil {
		return nil, err
	}
	payload.Trace = tr
	q := db.coord.SubmitKeyed(sqlText, level, payload, key)
	if tr != nil {
		tr.QueryID = q.ID
	}
	return q, nil
}

// planForSubmit plans an embedded submission: through the repeat-traffic
// cache when enabled, else parse+bind+plan from scratch.
func (db *DB) planForSubmit(database, sqlText string) (core.PlanPayload, string, error) {
	if db.qcache != nil {
		node, resultKey, err := db.qcache.Plan(database, sqlText, 0)
		if err != nil {
			return core.PlanPayload{}, "", err
		}
		// The normalized result key doubles as the coalesce key: two
		// formattings of one query are the same in-flight execution.
		return core.PlanPayload{Node: node, ResultKey: resultKey}, resultKey, nil
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return core.PlanPayload{}, "", err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return core.PlanPayload{}, "", fmt.Errorf("pixelsdb: only SELECT can be scheduled, got %T", stmt)
	}
	node, err := db.engine.PlanQuery(database, sel)
	if err != nil {
		return core.PlanPayload{}, "", err
	}
	return core.PlanPayload{Node: node}, database + "\x00" + sel.String(), nil
}

// Cancel aborts a pending query by ID.
func (db *DB) Cancel(queryID string) error { return db.coord.Cancel(queryID) }

// Ask translates a natural-language question into SQL against a database's
// schema using the configured text-to-SQL service.
func (db *DB) Ask(database, question string) (nl2sql.Translation, error) {
	schema, err := nl2sql.SchemaFromCatalog(db.catalog, database)
	if err != nil {
		return nl2sql.Translation{}, err
	}
	return db.xlator.Translate(nl2sql.Request{Question: question, Schema: schema})
}

// AskAndSubmit chains Ask and Submit — the demo's one-shot flow.
func (db *DB) AskAndSubmit(database, question string, level Level) (*Query, nl2sql.Translation, error) {
	tr, err := db.Ask(database, question)
	if err != nil {
		return nil, tr, err
	}
	q, err := db.Submit(database, tr.SQL, level)
	return q, tr, err
}

// LoadSampleData generates and loads the TPC-H-derived sample dataset at a
// scale factor (0.01 ≈ 150 customers / 1500 orders).
func (db *DB) LoadSampleData(database string, sf float64) error {
	return workload.Load(db.engine, database, workload.LoadOptions{SF: sf, Seed: db.opts.Seed})
}

// Ledger exposes the billing ledger (per-query bills, report data).
func (db *DB) Ledger() *billing.Ledger { return db.ledger }

// PriceBook returns the active prices.
func (db *DB) PriceBook() billing.PriceBook { return db.coord.Config().Prices }

// Engine exposes the embedded query engine (advanced use).
func (db *DB) Engine() *engine.Engine { return db.engine }

// CacheStats reports read-cache activity (hits, misses, prefetch
// accounting); ok is false when Options.CacheSize left the cache off.
func (db *DB) CacheStats() (stats cache.Stats, ok bool) {
	if db.cache == nil {
		return cache.Stats{}, false
	}
	return db.cache.Stats(), true
}

// StoreUsage reports object-store request/byte accounting (plus cache
// counters when the cache is enabled).
func (db *DB) StoreUsage() objstore.Usage { return db.store.Usage() }

// Coordinator exposes the scheduler (advanced use).
func (db *DB) Coordinator() *core.Coordinator { return db.coord }

// Cluster exposes the VM cluster simulator (metrics, cost).
func (db *DB) Cluster() *vmsim.Cluster { return db.cluster }

// CFService exposes the cloud-function simulator (metrics, cost).
func (db *DB) CFService() *cfsim.Service { return db.cf }

// Admission exposes the admission controller (nil unless
// Options.Admission enabled it).
func (db *DB) Admission() *admission.Controller { return db.adm }

// QueryCache exposes the repeat-traffic cache (nil unless
// Options.PlanCache or Options.ResultCacheMB enabled it).
func (db *DB) QueryCache() *qcache.Cache { return db.qcache }

// QueryTrace returns a finished query's retained span tree, or nil when
// tracing is off, the query is not finished, or its trace was evicted.
func (db *DB) QueryTrace(queryID string) *obs.SpanData { return db.traces.Get(queryID) }

// Handler returns the Query Server REST handler (mount it on any mux).
func (db *DB) Handler(defaultDatabase, token string) http.Handler {
	s := &server.Server{
		Engine:     db.engine,
		Coord:      db.coord,
		Translator: db.xlator,
		Clock:      db.clock,
		DefaultDB:  defaultDatabase,
		Token:      token,
		Admission:  db.adm,
		QCache:     db.qcache,
		Tracing:    db.opts.Tracing,
		TraceStore: db.traces,
		Metrics:    db.opts.Metrics,
		Pprof:      db.opts.Pprof,
		CacheStats: db.CacheStats,
	}
	return s.Handler()
}

// Serve runs the Query Server until the listener fails.
func (db *DB) Serve(addr, defaultDatabase, token string) error {
	return http.ListenAndServe(addr, db.Handler(defaultDatabase, token))
}

// NewRoverClient builds a client for a served instance.
func NewRoverClient(baseURL string) *rover.Client { return rover.NewClient(baseURL) }
