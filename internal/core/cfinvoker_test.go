package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

const cfTestQuery = "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"

// newCFTestEngine loads a small partitioned TPC-H fixture over store.
func newCFTestEngine(t *testing.T, store objstore.Store) *engine.Engine {
	t.Helper()
	eng := engine.New(catalog.New(), store)
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.005, Seed: 5, RowsPerFile: 2000}); err != nil {
		t.Fatal(err)
	}
	return eng
}

func planCFTestQuery(t *testing.T, eng *engine.Engine) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(cfTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	node, err := eng.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// runOnCFTier submits cfTestQuery at Immediate to a coordinator with zero
// VMs, so it goes straight to the CF tier, and waits for it to settle.
// Real clock: the real executor completes work asynchronously, so the cfsim
// ready timers must fire without manual Advance calls.
func runOnCFTier(t *testing.T, eng *engine.Engine, cfg Config, cfCfg cfsim.Config, inv engine.WorkerInvoker) (*Query, *billing.Ledger) {
	t.Helper()
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cfCfg.ColdStart, cfCfg.WarmStart = time.Millisecond, time.Millisecond
	cf := cfsim.NewService(clk, cfCfg)
	ledger := billing.NewLedger()
	coord := NewCoordinator(clk, cfg, cluster, cf, &PlannedExecutor{Engine: eng, CFInvoker: inv}, ledger)
	qh := coord.Submit(cfTestQuery, billing.Immediate, PlanPayload{Node: planCFTestQuery(t, eng)})
	select {
	case <-qh.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("CF query timed out")
	}
	if !qh.UsedCF() {
		t.Fatal("query did not use the CF tier")
	}
	return qh, ledger
}

func expectNoIntermediates(t *testing.T, s objstore.Store) {
	t.Helper()
	infos, err := s.List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}

// rejectFirstInvoker is a WorkerInvoker that fails every task's first
// attempt with a worker-reported error, then delegates to the in-process
// invoker — exercising the scheduler's CF retry loop through the invoker
// seam.
type rejectFirstInvoker struct {
	engine *engine.Engine

	mu       sync.Mutex
	attempts map[int][]int // task -> attempt numbers seen
}

func (f *rejectFirstInvoker) Invoke(ctx context.Context, req *engine.WorkerRequest) (*engine.WorkerResponse, error) {
	f.mu.Lock()
	f.attempts[req.Task] = append(f.attempts[req.Task], req.Attempt)
	f.mu.Unlock()
	if req.Attempt == 0 {
		return &engine.WorkerResponse{Error: "injected: worker lost"}, nil
	}
	return (&engine.LocalInvoker{Engine: f.engine}).Invoke(ctx, req)
}

// TestCFInvokerSeamWithSchedulerRetries: a query routed to the CF tier
// runs its worker tasks through the invoker seam; when every task's first
// attempt fails, the coordinator's retry loop relaunches them with fresh
// attempt numbers and the query completes with the serial result and the
// serial bill.
func TestCFInvokerSeamWithSchedulerRetries(t *testing.T) {
	eng := newCFTestEngine(t, objstore.NewMemory())
	ref, err := eng.RunPlan(context.Background(), planCFTestQuery(t, eng))
	if err != nil {
		t.Fatal(err)
	}

	flaky := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}}
	qh, ledger := runOnCFTier(t, eng, Config{CFMaxParts: 4, CFTaskRetries: 1}, cfsim.Config{}, flaky)
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(qh.Result().Rows) != fmt.Sprint(ref.Rows) {
		t.Fatalf("CF rows diverged:\n%v\nvs\n%v", qh.Result().Rows, ref.Rows)
	}

	flaky.mu.Lock()
	for task, seen := range flaky.attempts {
		if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
			t.Fatalf("task %d attempts = %v, want [0 1]", task, seen)
		}
	}
	nTasks := len(flaky.attempts)
	flaky.mu.Unlock()
	if nTasks == 0 {
		t.Fatal("invoker never invoked")
	}

	// Failed first attempts contribute zero stats: the bill equals the
	// serial scan exactly.
	var found bool
	for _, b := range ledger.All() {
		if b.QueryID == qh.ID {
			found = true
			if b.BytesScanned != ref.Stats.BytesScanned {
				t.Fatalf("billed %d bytes, serial %d — failed attempts double-billed", b.BytesScanned, ref.Stats.BytesScanned)
			}
		}
	}
	if !found {
		t.Fatal("no bill written")
	}
	if got := qh.Result().Stats.BytesScanned; got != ref.Stats.BytesScanned {
		t.Fatalf("result reports %d bytes scanned, serial %d", got, ref.Stats.BytesScanned)
	}

	// The retried attempts' orphans and the winners are all swept.
	expectNoIntermediates(t, eng.Store())
}

// TestCFFailedTasksLeaveNoIntermediates: when every invocation fails past
// the scheduler's retries, the query fails and every attempt's output is
// swept — with the default in-process invoker and an explicit one alike.
func TestCFFailedTasksLeaveNoIntermediates(t *testing.T) {
	for _, tc := range []struct {
		name string
		inv  func(*engine.Engine) engine.WorkerInvoker
	}{
		{"nil-invoker", func(*engine.Engine) engine.WorkerInvoker { return nil }},
		{"local-invoker", func(e *engine.Engine) engine.WorkerInvoker { return &engine.LocalInvoker{Engine: e} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := objstore.NewMetered(objstore.NewMemory())
			eng := newCFTestEngine(t, store)
			store.Reset()
			qh, _ := runOnCFTier(t, eng, Config{CFMaxParts: 2, CFTaskRetries: 1}, cfsim.Config{FailureProb: 1}, tc.inv(eng))
			if qh.Err() == nil {
				t.Fatal("query succeeded although every invocation failed")
			}
			if store.Usage().Puts == 0 {
				t.Fatal("no attempt wrote an intermediate — the test proved nothing")
			}
			expectNoIntermediates(t, store)
		})
	}
}

// TestCFFailedMergeLeavesNoIntermediates: a merge that cannot read the
// intermediates fails the query and still sweeps them.
func TestCFFailedMergeLeavesNoIntermediates(t *testing.T) {
	faulty := objstore.NewFaultStore(objstore.NewMemory(), objstore.FaultConfig{
		FailFirst: 1 << 30,
		Ops:       []string{"Get", "GetRange"},
		Prefix:    objstore.IntermediateRoot,
	})
	eng := newCFTestEngine(t, faulty)
	qh, _ := runOnCFTier(t, eng, Config{CFMaxParts: 4}, cfsim.Config{}, nil)
	if qh.Err() == nil {
		t.Fatal("merge over unreadable intermediates succeeded")
	}
	if faulty.Stats().InjectedErrors == 0 {
		t.Fatal("no read fault was injected — the test proved nothing")
	}
	expectNoIntermediates(t, faulty)
}

// recordingInvoker records every request it runs in-process.
type recordingInvoker struct {
	engine *engine.Engine

	mu   sync.Mutex
	reqs []engine.WorkerRequest
}

func (r *recordingInvoker) Invoke(ctx context.Context, req *engine.WorkerRequest) (*engine.WorkerResponse, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, *req)
	r.mu.Unlock()
	return (&engine.LocalInvoker{Engine: r.engine}).Invoke(ctx, req)
}

// TestCFRequestsCarryInterpreted: an engine with the vectorized kernels
// off ships that setting in every CF worker request, so a worker process
// evaluates exactly as the coordinator does.
func TestCFRequestsCarryInterpreted(t *testing.T) {
	eng := newCFTestEngine(t, objstore.NewMemory())
	eng.SetVectorized(false)
	rec := &recordingInvoker{engine: eng}
	qh, _ := runOnCFTier(t, eng, Config{CFMaxParts: 4}, cfsim.Config{}, rec)
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.reqs) == 0 {
		t.Fatal("invoker never invoked")
	}
	for _, req := range rec.reqs {
		if !req.Interpreted {
			t.Fatalf("task %d attempt %d request from an interpreted engine has Interpreted=false", req.Task, req.Attempt)
		}
	}
}
