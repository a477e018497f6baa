package server_test

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// newTestServer stands up the full stack on the real clock with a warm
// cluster, so queries run without scale-out waits.
func newTestServer(t *testing.T, token string) (*httptest.Server, *server.Server) {
	t.Helper()
	eng := engine.New(catalog.New(), objstore.NewMetered(objstore.NewMemory()))
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.002, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 4}, 2)
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	coord := core.NewCoordinator(clk, core.Config{GracePeriod: time.Minute},
		cluster, cf, &core.PlannedExecutor{Engine: eng}, billing.NewLedger())
	srv := &server.Server{
		Engine:     eng,
		Coord:      coord,
		Translator: &nl2sql.Template{},
		Clock:      clk,
		DefaultDB:  "tpch",
		Token:      token,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestHealthAndSchemas(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	schemas, err := c.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas.Databases) != 1 || schemas.Databases[0].Name != "tpch" {
		t.Fatalf("schemas = %+v", schemas)
	}
	if len(schemas.Databases[0].Tables) != 7 {
		t.Fatalf("tables = %d", len(schemas.Databases[0].Tables))
	}
	for _, tb := range schemas.Databases[0].Tables {
		if tb.Rows <= 0 || len(tb.Columns) == 0 {
			t.Fatalf("table %s empty: %+v", tb.Name, tb)
		}
	}
}

func TestTranslateSubmitResultFlow(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	sess := rover.NewSession(c, "tpch")

	// Use case 1: ask a question.
	it, err := sess.Ask("How many orders are there?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(it.SQL, "COUNT(*)") {
		t.Fatalf("translated SQL = %q", it.SQL)
	}

	// Edit the query (code-block edit), then submit at Immediate.
	if err := sess.Edit("SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders"); err != nil {
		t.Fatal(err)
	}
	resp, err := sess.SubmitLast("immediate", 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitFinished(resp.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "finished" || info.Level != "immediate" {
		t.Fatalf("info = %+v", info)
	}

	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "n" {
		t.Fatalf("result = %+v", res)
	}
	if res.BytesScanned <= 0 || res.ListPrice <= 0 {
		t.Fatalf("billing fields missing: %+v", res)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if _, err := c.Submit("tpch", "", "immediate", 0); err == nil {
		t.Fatalf("empty SQL accepted")
	}
	if _, err := c.Submit("tpch", "SELECT * FROM orders", "warp-speed", 0); err == nil {
		t.Fatalf("bogus level accepted")
	}
	if _, err := c.Submit("tpch", "NOT SQL AT ALL", "immediate", 0); err == nil {
		t.Fatalf("bad SQL accepted")
	}
	if _, err := c.Submit("tpch", "DROP TABLE orders", "immediate", 0); err == nil {
		t.Fatalf("non-SELECT accepted")
	}
	if _, err := c.Submit("tpch", "SELECT no_such_col FROM orders", "immediate", 0); err == nil {
		t.Fatalf("plan error not surfaced at submit")
	}
	if _, err := c.Status("q-999999"); err == nil {
		t.Fatalf("missing query returned status")
	}
}

func TestRowLimitApplied(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	resp, err := c.Submit("tpch", "SELECT o_orderkey FROM orders", "immediate", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitFinished(resp.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("row limit ignored: %d rows", len(res.Rows))
	}
}

func TestResultConflictWhileRunning(t *testing.T) {
	ts, srv := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	resp, err := c.Submit("tpch", "SELECT COUNT(*) FROM lineitem", "best-of-effort", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately fetching the result may race completion; accept either
	// conflict or success, but never a 500.
	_, rerr := c.Result(resp.ID)
	if rerr != nil && !strings.Contains(rerr.Error(), "HTTP 409") && !strings.Contains(rerr.Error(), "query is") {
		t.Fatalf("unexpected error: %v", rerr)
	}
	if _, err := c.WaitFinished(resp.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

// Fetching a result looks its bill up by query ID, so its cost must not
// grow with the number of bills the server has written.
func TestResultPayloadCostIndependentOfLedgerSize(t *testing.T) {
	ts, srv := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	resp, err := c.Submit("tpch", "SELECT COUNT(*) FROM orders", "immediate", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitFinished(resp.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	q, ok := srv.Coord.Get(resp.ID)
	if !ok {
		t.Fatalf("query %s not found", resp.ID)
	}
	ledger := srv.Coord.Ledger()
	fill := func(n int) {
		for ledger.Len() < n {
			ledger.Append(billing.QueryBill{QueryID: fmt.Sprintf("filler-%d", ledger.Len())})
		}
	}
	const runs = 20
	measure := func() (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { srv.ResultPayloadFor(q) })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	fill(10)
	allocsSmall, bytesSmall := measure()
	fill(10000)
	allocsLarge, bytesLarge := measure()
	if p := srv.ResultPayloadFor(q); p.ListPrice <= 0 || p.BytesScanned <= 0 {
		t.Fatalf("bill fields missing from payload: %+v", p)
	}
	if allocsLarge != allocsSmall {
		t.Errorf("resultPayload allocs: %v with 10 bills, %v with 10000", allocsSmall, allocsLarge)
	}
	if bytesLarge > 2*bytesSmall+4096 {
		t.Errorf("resultPayload bytes: %d with 10 bills, %d with 10000", bytesSmall, bytesLarge)
	}
}

func TestReportEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	for _, lev := range []string{"immediate", "relaxed", "best-of-effort"} {
		resp, err := c.Submit("tpch", "SELECT COUNT(*) FROM orders", lev, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitFinished(resp.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := c.ReportSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 3 {
		t.Fatalf("summary levels = %d: %+v", len(sum), sum)
	}
	for _, s := range sum {
		if s.Queries != 1 || s.Finished != 1 {
			t.Fatalf("summary row = %+v", s)
		}
	}
	tl, err := c.ReportTimeline(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range tl {
		total += p.Total
	}
	if total != 3 {
		t.Fatalf("timeline total = %d", total)
	}
	bills, err := c.ReportQueries(time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 3 {
		t.Fatalf("bills = %d", len(bills))
	}
	pb, err := c.PriceBook()
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Levels) != 3 || pb.Levels[0].USDPerTB != 5 || pb.Levels[1].USDPerTB != 2 || pb.Levels[2].USDPerTB != 0.5 {
		t.Fatalf("pricebook = %+v", pb)
	}
	if pb.CFvsVMUnitPriceRatio < 9 || pb.CFvsVMUnitPriceRatio > 24 {
		t.Fatalf("unit price ratio %f outside band", pb.CFvsVMUnitPriceRatio)
	}
}

func TestAuthToken(t *testing.T) {
	ts, _ := newTestServer(t, "sekrit")
	anon := rover.NewClient(ts.URL)
	if err := anon.Health(); err == nil {
		t.Fatalf("anonymous request accepted")
	}
	authed := rover.NewClient(ts.URL)
	authed.Token = "sekrit"
	if err := authed.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if _, err := c.Translate("tpch", ""); err == nil {
		t.Fatalf("empty question accepted")
	}
	if _, err := c.Translate("nodb", "how many orders"); err == nil {
		t.Fatalf("missing db accepted")
	}
	if _, err := c.Translate("tpch", "sing me a song"); err == nil {
		t.Fatalf("untranslatable question did not error")
	}
}

func TestNLQueryEndToEnd(t *testing.T) {
	// The demo's full loop: question -> SQL -> submit relaxed -> result.
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	sess := rover.NewSession(c, "tpch")
	it, err := sess.Ask("Number of customers per market segment")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.SubmitLast("relaxed", 0)
	if err != nil {
		t.Fatalf("submit %q: %v", it.SQL, err)
	}
	info, err := c.WaitFinished(resp.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "finished" {
		t.Fatalf("status = %s (%s)", info.Status, info.Error)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 2 {
		t.Fatalf("result = %+v", res)
	}
}
