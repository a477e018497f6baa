package disttest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// runServing runs q the way the serving path does: submitted at Immediate
// to a core.Coordinator with zero VMs, so it goes to the CF tier, over a
// PlannedExecutor whose CF tasks run through inv. It returns the query's
// result and bill.
func runServing(t *testing.T, e *engine.Engine, q string, cfg core.Config, inv engine.WorkerInvoker) (*engine.Result, billing.QueryBill) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	ledger := billing.NewLedger()
	coord := core.NewCoordinator(clk, cfg, cluster, cf, &core.PlannedExecutor{Engine: e, CFInvoker: inv}, ledger)
	qh := coord.Submit(q, billing.Immediate, core.PlanPayload{Node: node})
	select {
	case <-qh.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("serving %q timed out", q)
	}
	if err := qh.Err(); err != nil {
		t.Fatalf("serving %q: %v", q, err)
	}
	if !qh.UsedCF() {
		t.Fatalf("serving %q did not use the CF tier", q)
	}
	bills := ledger.All()
	if len(bills) != 1 {
		t.Fatalf("serving %q wrote %d bills, want 1", q, len(bills))
	}
	return qh.Result(), bills[0]
}

// expectServingMatchesSerial asserts the serving path's rows, scan stats
// and billed bytes are bit-identical to serial execution.
func expectServingMatchesSerial(t *testing.T, label string, serial, res *engine.Result, bill billing.QueryBill) {
	t.Helper()
	expectSameRows(t, label, serial, res)
	expectSameBilling(t, label, serial, res)
	if res.Stats.ColumnChunksSkipped != serial.Stats.ColumnChunksSkipped {
		t.Fatalf("%s chunks skipped: %d vs serial %d", label, res.Stats.ColumnChunksSkipped, serial.Stats.ColumnChunksSkipped)
	}
	if bill.BytesScanned != serial.Stats.BytesScanned {
		t.Fatalf("%s bill: %d bytes vs serial %d", label, bill.BytesScanned, serial.Stats.BytesScanned)
	}
}

// TestExperimentQueriesThroughServingPath: the path production runs — the
// scheduler's CF tier driving the engine's attempt, merge and sweep code —
// is indistinguishable from serial RunPlan, in-process at several widths
// and across worker processes, and leaves no intermediate behind.
func TestExperimentQueriesThroughServingPath(t *testing.T) {
	e, dir := fixture(t)
	for _, leg := range []struct {
		name   string
		inv    engine.WorkerInvoker
		widths []int
	}{
		{"local-invoker", &engine.LocalInvoker{Engine: e}, []int{1, 2, 8}},
		{"process", processInvoker(dir), []int{2}},
	} {
		for _, width := range leg.widths {
			for _, q := range experimentQueries {
				serial := runSerial(t, e, q)
				res, bill := runServing(t, e, q, core.Config{CFMaxParts: width}, leg.inv)
				expectServingMatchesSerial(t, fmt.Sprintf("%s @%d %s", q, width, leg.name), serial, res, bill)
			}
		}
	}
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}
