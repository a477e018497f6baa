package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/workload"
)

// request is one generated client action. The program only ever sees sql,
// question and the INSERT text; kind and canon stay in the benchmark.
type request struct {
	kind     string // template label, for engine.run_vm_ms.<kind>
	sql      string // SQL as sent (empty for an NL request until translated)
	question string // NL question: translated through /v1/translate first
	canon    string // canonical statement; formatting variants share it
	level    billing.Level
}

// Template labels. The first six are the internal/workload query kinds;
// rollup and count label the dashboard's own statements.
var templateKinds = []string{
	string(workload.KindPricingSummary), string(workload.KindShippedRevenue),
	string(workload.KindForecastRevenue), string(workload.KindTopCustomers),
	string(workload.KindPointLookup), string(workload.KindSegmentCount),
	"rollup", "count",
}

// spec fixes one workload: its data, its traffic and why it exists.
type spec struct {
	name string
	sf   float64 // scale factor of the generated TPC-H-lite data
	// openRate > 0 selects the open loop at this many arrivals per second;
	// otherwise nproc closed-loop clients.
	openRate float64
	// pace > 0 caps the closed loop's rate (requests per second over all
	// clients): a client whose reply came early waits for its next slot.
	pace float64
	// insertEvery > 0 runs the INSERT schedule (dashboard only).
	insertEvery time.Duration
	newGen      func(seed int64, sf float64) generator
}

// generator yields a workload's requests in a fixed order for a seed.
type generator interface {
	next() request
}

var specs = map[string]spec{
	// adhoc: every query is new, so the work lands in the engine, the
	// object store and the read cache; the data is several times the read
	// cache so the store is really read.
	"adhoc": {name: "adhoc", sf: 0.5, newGen: newAdhocGen},
	// dashboard: a small Zipf-skewed statement set over data that fits in
	// the read cache, with formatting variants, NL questions and a steady
	// INSERT stream, so the work lands in qcache, nl2sql, the server and
	// the invalidation path.
	// Dashboards refresh on a schedule, so its clients are paced: at half
	// the deployment's capacity the ledger, which every result fetch scans,
	// grows by the same amount in every run.
	"dashboard": {name: "dashboard", sf: 0.02, pace: 100, insertEvery: 250 * time.Millisecond, newGen: newDashboardGen},
	// tiered: open-loop arrivals at a fixed rate across all three service
	// levels; VM slots run out, so Immediate queries spill to CF and
	// Relaxed queries wait, exercising admission, tier routing and the CF
	// path.
	"tiered": {name: "tiered", sf: 0.03, openRate: 50, newGen: newTieredGen},
}

// lockedGen serializes a generator so closed-loop clients draw one fixed
// request sequence between them.
type lockedGen struct {
	mu sync.Mutex
	g  generator
}

func (l *lockedGen) next() request {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.g.next()
}

// adhocGen renders the internal/workload templates with literal domains
// widened (day-granular dates, wide numeric thresholds, any order key), so
// repeats — and result-cache hits — stay rare.
type adhocGen struct {
	rng   *rand.Rand
	sizes workload.Sizes
	level billing.Level
	block []workload.QueryKind
}

// adhocBlock is the template mix, drawn as shuffled blocks of this exact
// make-up so every run has the same mix. Half the queries are the two-way
// join of top-customers, so the median falls in the middle of that one
// template's latency mode; the full scans and the three-way join are the
// top 20%, so the p95 falls inside theirs. Neither percentile sits in a
// gap between modes, where a small shift would move it far.
var adhocBlock = func() []workload.QueryKind {
	var b []workload.QueryKind
	for kind, n := range map[workload.QueryKind]int{
		workload.KindPointLookup: 3, workload.KindSegmentCount: 2,
		workload.KindTopCustomers: 10, workload.KindForecastRevenue: 1,
		workload.KindPricingSummary: 2, workload.KindShippedRevenue: 2,
	} {
		for i := 0; i < n; i++ {
			b = append(b, kind)
		}
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return b
}()

func newAdhocGen(seed int64, sf float64) generator {
	return &adhocGen{rng: rand.New(rand.NewSource(seed)), sizes: workload.SizesAt(sf), level: billing.Immediate}
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// day renders a date between from and from+span days.
func (g *adhocGen) day(from string, span int) string {
	t, _ := time.Parse("2006-01-02", from)
	return t.AddDate(0, 0, g.rng.Intn(span)).Format("2006-01-02")
}

func (g *adhocGen) pick() workload.QueryKind {
	if len(g.block) == 0 {
		g.block = append(g.block, adhocBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	k := g.block[0]
	g.block = g.block[1:]
	return k
}

func (g *adhocGen) next() request {
	kind := g.pick()
	var q string
	switch kind {
	case workload.KindPricingSummary:
		q = fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
	SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= DATE '%s'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, g.day("1995-01-01", 1430))
	case workload.KindShippedRevenue:
		q = fmt.Sprintf(`SELECT l.l_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, o.o_orderdate
FROM customer c, orders o, lineitem l
WHERE c.c_mktsegment = '%s' AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < DATE '%s'
GROUP BY l.l_orderkey, o.o_orderdate ORDER BY revenue DESC, l.l_orderkey LIMIT 10`,
			segments[g.rng.Intn(len(segments))], g.day("1994-01-01", 1090))
	case workload.KindForecastRevenue:
		from := g.day("1993-01-01", 1800)
		t, _ := time.Parse("2006-01-02", from)
		disc := 2 + g.rng.Intn(7)
		q = fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' AND l_discount BETWEEN 0.0%d AND 0.0%d AND l_quantity < %d`,
			from, t.AddDate(1, 0, 0).Format("2006-01-02"), disc-1, disc+1, 20+g.rng.Intn(20))
	case workload.KindTopCustomers:
		q = fmt.Sprintf(`SELECT c.c_name, SUM(o.o_totalprice) AS total FROM customer c, orders o
WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > %d
GROUP BY c.c_name ORDER BY total DESC, c.c_name LIMIT %d`, g.rng.Intn(9000), 5+g.rng.Intn(15))
	case workload.KindPointLookup:
		q = fmt.Sprintf(`SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d`,
			1+g.rng.Intn(g.sizes.Orders))
	default: // segment count
		q = fmt.Sprintf(`SELECT c_mktsegment, COUNT(*) AS cnt, AVG(c_acctbal) AS avg_bal FROM customer
WHERE c_acctbal > %d GROUP BY c_mktsegment ORDER BY cnt DESC, c_mktsegment`, g.rng.Intn(9000))
	}
	return request{kind: string(kind), sql: q, canon: q, level: g.level}
}

// tierBlock is the service-level mix of tiered, drawn as shuffled blocks:
// half the queries are Immediate — the level that spills to CF — and a
// quarter each Relaxed and Best-of-effort.
var tierBlock = []billing.Level{billing.Immediate, billing.Immediate, billing.Relaxed, billing.BestEffort}

// tieredGen is the adhoc template stream with a service level per arrival
// from shuffled tierBlocks, so every run has the same level mix.
type tieredGen struct {
	*adhocGen
	block []billing.Level
}

func newTieredGen(seed int64, sf float64) generator {
	return &tieredGen{adhocGen: newAdhocGen(seed, sf).(*adhocGen)}
}

func (g *tieredGen) next() request {
	if len(g.block) == 0 {
		g.block = append(g.block, tierBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	r := g.adhocGen.next()
	r.level, g.block = g.block[0], g.block[1:]
	return r
}

// dashboardStmt is one dashboard panel.
type dashboardStmt struct {
	kind, sql string
}

// dashboardStmts is the dashboard's statement set, most popular first.
// Every ORDER BY is total, so ordered comparison is exact.
var dashboardStmts = []dashboardStmt{
	{"count", `SELECT COUNT(*) FROM orders`},
	{"rollup", `SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus`},
	{"count", `SELECT COUNT(*) FROM lineitem`},
	{string(workload.KindPricingSummary), `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`},
	{string(workload.KindSegmentCount), `SELECT c_mktsegment, COUNT(*) AS cnt, AVG(c_acctbal) AS avg_bal FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment`},
	{"rollup", `SELECT o_orderpriority, COUNT(*) AS n, AVG(o_totalprice) AS avg_price FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	{string(workload.KindTopCustomers), `SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10`},
	{"rollup", `SELECT l_shipmode, AVG(l_discount) AS avg_disc, COUNT(*) AS n FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`},
	{string(workload.KindForecastRevenue), `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},
	{"count", `SELECT COUNT(*) FROM orders WHERE o_orderdate >= DATE '1995-01-01'`},
	{string(workload.KindTopCustomers), `SELECT c.c_name, SUM(o.o_totalprice) AS total FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_name ORDER BY total DESC, c.c_name LIMIT 10`},
	{"rollup", `SELECT MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi FROM orders`},
	{"rollup", `SELECT n_name, COUNT(*) AS n FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name`},
	{"rollup", `SELECT l_shipmode, COUNT(*) AS n FROM lineitem WHERE l_shipdate >= DATE '1996-01-01' GROUP BY l_shipmode ORDER BY l_shipmode`},
	{"rollup", `SELECT p_brand, AVG(p_retailprice) AS avg_price FROM part GROUP BY p_brand ORDER BY p_brand`},
	{"rollup", `SELECT o_orderstatus, AVG(o_totalprice) AS avg_price FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY o_orderstatus ORDER BY o_orderstatus`},
	{"count", `SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 'R'`},
	{"rollup", `SELECT SUM(l_quantity) AS qty FROM lineitem WHERE l_shipmode = 'AIR'`},
	{"rollup", `SELECT r_name, COUNT(*) AS n FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name`},
	{string(workload.KindPointLookup), `SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 42`},
}

// dashboardQuestions are the NL panels, each with phrasing variants the
// translator must map to one statement.
var dashboardQuestions = [][]string{
	{"How many orders are there?", "how many orders are there", "HOW MANY ORDERS ARE THERE?"},
	{"Number of orders per order priority", "number of orders per order priority?", "Number of Orders per Order Priority"},
	{"What is the average total price of orders?", "what is the average total price of orders", "What is the AVERAGE total price of orders?"},
	{"Top 10 orders by total price", "top 10 orders by total price", "Top 10 Orders by Total Price"},
	{"Average discount of lineitems per return flag", "average discount of lineitems per return flag", "Average Discount of Lineitems per Return Flag?"},
	{"How many customers are in the building segment?", "how many customers are in the building segment", "How many customers are in the BUILDING segment?"},
	{"Count the orders placed in 1994", "count the orders placed in 1994", "Count the Orders placed in 1994"},
	{"Maximum discount of lineitems", "maximum discount of lineitems", "Maximum Discount of Lineitems?"},
}

const nlShare = 0.15 // share of dashboard requests that are NL questions

// dashboardGen draws Zipf-skewed panels (weight 1/rank) in one of four
// formattings, or an NL question.
type dashboardGen struct {
	rng    *rand.Rand
	cumsum []float64
}

func newDashboardGen(seed int64, _ float64) generator {
	g := &dashboardGen{rng: rand.New(rand.NewSource(seed))}
	total := 0.0
	for i := range dashboardStmts {
		total += 1 / float64(i+1)
		g.cumsum = append(g.cumsum, total)
	}
	return g
}

func (g *dashboardGen) next() request {
	if g.rng.Float64() < nlShare {
		qs := dashboardQuestions[g.rng.Intn(len(dashboardQuestions))]
		return request{kind: "nl", question: qs[g.rng.Intn(len(qs))], level: billing.Relaxed}
	}
	x := g.rng.Float64() * g.cumsum[len(g.cumsum)-1]
	i := 0
	for i < len(g.cumsum)-1 && x >= g.cumsum[i] {
		i++
	}
	s := dashboardStmts[i]
	return request{kind: s.kind, sql: variant(s.sql, g.rng.Intn(4), i), canon: s.sql, level: billing.Relaxed}
}

// variant reformats a statement without changing its meaning: as written,
// with keywords and identifiers lower-cased (string literals untouched),
// with a leading block comment and newlines, or with a trailing semicolon
// and line comment.
func variant(sqlText string, v, panel int) string {
	switch v {
	case 1:
		return lowerOutsideQuotes(sqlText)
	case 2:
		return fmt.Sprintf("/* panel %d */\n%s", panel, strings.ReplaceAll(sqlText, " FROM ", "\n  FROM "))
	case 3:
		return sqlText + "; -- refresh"
	default:
		return sqlText
	}
}

func lowerOutsideQuotes(s string) string {
	var b strings.Builder
	quoted := false
	for _, r := range s {
		if r == '\'' {
			quoted = !quoted
		}
		if !quoted && r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// insertGen renders the dashboard's INSERT stream: alternately a few new
// orders and a few new lineitems, with keys beyond the generated data.
type insertGen struct {
	rng *rand.Rand
	n   int
}

const rowsPerInsert = 4

// next returns the table and the INSERT statement.
func (g *insertGen) next() (string, string) {
	i := g.n
	g.n++
	var rows []string
	if i%2 == 0 {
		for j := 0; j < rowsPerInsert; j++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, 'O', %d.%02d, '1998-0%d-1%d', '%d-NEW')",
				90000000+i*rowsPerInsert+j, 1+g.rng.Intn(1000), 1000+g.rng.Intn(90000), g.rng.Intn(100),
				1+g.rng.Intn(9), g.rng.Intn(10), 1+g.rng.Intn(5)))
		}
		return "orders", "INSERT INTO orders VALUES " + strings.Join(rows, ", ")
	}
	for j := 0; j < rowsPerInsert; j++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %d, %d.%02d, 0.0%d, 0.0%d, 'N', 'O', '1998-0%d-1%d', 'AIR')",
			90000000+i*rowsPerInsert, 1+g.rng.Intn(1000), 1+g.rng.Intn(100), 1+g.rng.Intn(50),
			100+g.rng.Intn(90000), g.rng.Intn(100), g.rng.Intn(10), g.rng.Intn(9),
			1+g.rng.Intn(9), g.rng.Intn(10)))
	}
	return "lineitem", "INSERT INTO lineitem VALUES " + strings.Join(rows, ", ")
}
