package disttest

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/sql"
)

// failFirstAttempts makes attempt 0 of every task fail deterministically:
// the worker process gets a fault plan under which every store operation
// errors, so a query can only succeed if the coordinator retried each task
// in a fresh worker.
func failFirstAttempts(req *engine.WorkerRequest) *objstore.FaultConfig {
	if req.Attempt == 0 {
		return &objstore.FaultConfig{FailFirst: 1 << 30}
	}
	return nil
}

// TestRecoversFromWorkerStoreErrors: injected store errors inside worker
// processes must be invisible to the caller — same rows, same billed bytes,
// same stats as a fault-free run, and no leftover intermediates.
func TestRecoversFromWorkerStoreErrors(t *testing.T) {
	e, dir := fixture(t)
	for _, q := range experimentQueries {
		serial := runSerial(t, e, q)
		clean := runDistributed(t, e, q, engine.DistOptions{Parts: 4, Invoker: processInvoker(dir)})

		proc := processInvoker(dir)
		proc.FaultFor = failFirstAttempts
		recovered := runDistributed(t, e, q, engine.DistOptions{Parts: 4, Invoker: proc, Retries: 1})

		expectSameRows(t, q+" recovered", serial, recovered)
		expectSameBilling(t, q+" recovered", serial, recovered)
		if recovered.Stats != clean.Stats {
			t.Fatalf("%q: recovered stats %+v vs fault-free %+v — failed attempts were billed", q, recovered.Stats, clean.Stats)
		}
	}
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("orphan intermediates after recovery: %v", infos)
	}
}

// TestServingPathRecoversFromWorkerStoreErrors is the same fault plan
// through the serving path: the scheduler's CF retries, not the engine's,
// give each task its second attempt, and the result, stats and bill still
// match serial execution with nothing left behind.
func TestServingPathRecoversFromWorkerStoreErrors(t *testing.T) {
	e, dir := fixture(t)
	proc := processInvoker(dir)
	proc.FaultFor = failFirstAttempts
	for _, q := range experimentQueries {
		res, bill := runServing(t, e, q, core.Config{CFMaxParts: 4, CFTaskRetries: 1}, proc)
		expectServingMatchesSerial(t, q+" recovered", runSerial(t, e, q), res, bill)
	}
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("orphan intermediates after recovery: %v", infos)
	}
}

// TestSeededErrorRateRecovery: a seeded random error rate on first attempts
// (the realistic flaky-store case, not the deterministic always-fail one)
// must also recover within the retry budget.
func TestSeededErrorRateRecovery(t *testing.T) {
	e, dir := fixture(t)
	q := experimentQueries[0]
	serial := runSerial(t, e, q)

	proc := processInvoker(dir)
	proc.FaultFor = func(req *engine.WorkerRequest) *objstore.FaultConfig {
		if req.Attempt == 0 {
			return &objstore.FaultConfig{Seed: int64(req.Task + 1), ErrorRate: 0.2}
		}
		return nil
	}
	recovered := runDistributed(t, e, q, engine.DistOptions{Parts: 8, Invoker: proc, Retries: 1})
	expectSameRows(t, q+" flaky", serial, recovered)
	expectSameBilling(t, q+" flaky", serial, recovered)
}

// TestStragglerSpeculation: workers slowed by injected latency trigger
// speculative duplicates; results and billing stay identical because only
// each task's winning attempt is accounted.
func TestStragglerSpeculation(t *testing.T) {
	e, dir := fixture(t)
	q := experimentQueries[0]
	serial := runSerial(t, e, q)
	clean := runDistributed(t, e, q, engine.DistOptions{Parts: 4, Invoker: processInvoker(dir)})

	proc := processInvoker(dir)
	proc.FaultFor = func(req *engine.WorkerRequest) *objstore.FaultConfig {
		if req.Attempt == 0 {
			return &objstore.FaultConfig{Seed: int64(req.Task), Latency: 15 * time.Millisecond}
		}
		return nil
	}
	res := runDistributed(t, e, q, engine.DistOptions{
		Parts: 4, Invoker: proc, SpeculativeAfter: 30 * time.Millisecond,
	})
	expectSameRows(t, q+" speculated", serial, res)
	expectSameBilling(t, q+" speculated", serial, res)
	if res.Stats != clean.Stats {
		t.Fatalf("speculated stats %+v vs clean %+v — a losing attempt was billed", res.Stats, clean.Stats)
	}
}

// TestTornIntermediateReadFailsLoudly: silent corruption of the shuffled
// intermediates (bit flips, correct length) must fail the query through the
// file checksums — wrong answers are worse than errors.
func TestTornIntermediateReadFailsLoudly(t *testing.T) {
	e, _ := fixture(t)
	torn := objstore.NewFaultStore(e.Store(), objstore.FaultConfig{
		TornFirst: 1,
		Ops:       []string{"GetRange"},
		Prefix:    objstore.IntermediateRoot,
	})
	te := engine.New(e.Catalog(), torn)

	stmt, err := sql.Parse(experimentQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	node, err := te.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	_, err = te.RunPlanDistributed(context.Background(), node, "disttest-torn", engine.DistOptions{
		Parts: 4, Invoker: &engine.LocalInvoker{Engine: te},
	})
	if err == nil {
		t.Fatal("torn intermediate produced a result instead of an error")
	}
	if st := torn.Stats(); st.TornReads == 0 {
		t.Fatal("no torn read was injected — the test proved nothing")
	}
}
