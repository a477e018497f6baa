package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/plan"
	"repro/internal/sql"
)

// checker compares query outputs with a serial Engine.RunPlan reference
// computed at the table generation the query could have read. Only the
// dashboard writes; a table it writes has one version per INSERT, and a
// query may have read any version from the last one acknowledged before
// it was submitted to the last one started before it completed.
type checker struct {
	d        *deployment
	store    objstore.Store            // the DB's files, behind the checker's own cache
	base     map[string]*catalog.Table // table layouts at the start of the run
	versions map[string][]*insertRec   // per written table, its INSERTs in order

	mu    sync.Mutex
	refs  map[string][][]string // reference rows by statement and versions
	stmts map[string]*stmtInfo  // parsed canonical statements
}

type stmtInfo struct {
	ordered bool     // has ORDER BY: compare rows in order
	tables  []string // tables the plan scans
}

// newChecker reads the DB's files through a store of its own, with a read
// cache that holds all of them, so references neither pay the DB's read
// amplification nor disturb its cache counters.
func newChecker(d *deployment, base map[string]*catalog.Table, inserts []*insertRec) (*checker, error) {
	disk, err := objstore.NewDisk(d.dir)
	if err != nil {
		return nil, err
	}
	c := &checker{d: d, base: base, versions: map[string][]*insertRec{},
		store: cache.New(disk, cache.Config{Capacity: 4 * d.dataBytes}),
		refs:  map[string][][]string{}, stmts: map[string]*stmtInfo{}}
	for _, w := range inserts {
		if w.err == nil {
			c.versions[w.table] = append(c.versions[w.table], w)
		}
	}
	return c, nil
}

// snapshotTables copies every table's layout, taken before a run.
func snapshotTables(d *deployment) (map[string]*catalog.Table, error) {
	cat := d.db.Engine().Catalog()
	names, err := cat.ListTables(database)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*catalog.Table, len(names))
	for _, n := range names {
		if out[n], err = cat.GetTable(database, n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *checker) stmt(canon string) (*stmtInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.stmts[canon]; ok {
		return st, nil
	}
	sel, err := parseSelect(canon)
	if err != nil {
		return nil, err
	}
	node, err := c.d.db.Engine().PlanQuery(database, sel)
	if err != nil {
		return nil, err
	}
	st := &stmtInfo{ordered: len(sel.OrderBy) > 0}
	for _, s := range plan.Scans(node) {
		st.tables = append(st.tables, s.Table.Name)
	}
	c.stmts[canon] = st
	return st, nil
}

func parseSelect(text string) (*sql.Select, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	return sel, nil
}

// reference runs canon serially over the tables as they were after the
// given number of INSERTs into each written table.
func (c *checker) reference(ctx context.Context, canon string, at map[string]int) ([][]string, error) {
	key := canon
	for _, t := range sortedKeys(at) {
		key += fmt.Sprintf("|%s@%d", t, at[t])
	}
	c.mu.Lock()
	rows, ok := c.refs[key]
	c.mu.Unlock()
	if ok {
		return rows, nil
	}
	cat := catalog.New()
	if err := cat.CreateDatabase(database); err != nil {
		return nil, err
	}
	for name, t := range c.base {
		cp := *t
		if k := at[name]; k > 0 {
			cp.Files = c.versions[name][k-1].files
		}
		if err := cat.CreateTable(database, &cp); err != nil {
			return nil, err
		}
	}
	eng := engine.New(cat, c.store)
	sel, err := parseSelect(canon)
	if err != nil {
		return nil, err
	}
	node, err := eng.PlanQuery(database, sel)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunPlan(ctx, node)
	if err != nil {
		return nil, err
	}
	rows = rowStrings(res)
	c.mu.Lock()
	c.refs[key] = rows
	c.mu.Unlock()
	return rows, nil
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// window returns, for each written table the statement reads, the range
// of versions the query may have seen: [acknowledged before submit,
// started before completion].
func (c *checker) window(s *sample, tables []string) (lo, hi map[string]int) {
	lo, hi = map[string]int{}, map[string]int{}
	for _, t := range tables {
		vs, ok := c.versions[t]
		if !ok {
			continue
		}
		lo[t], hi[t] = 0, 0
		for _, w := range vs {
			if w.ack.Before(s.posted) {
				lo[t]++
			}
			if w.started.Before(s.done) {
				hi[t]++
			}
		}
	}
	return lo, hi
}

// check sets s.verdict: "" when the rows equal the reference at a version
// inside the query's window, "stale" when they equal only an older one,
// "wrong" otherwise.
func (c *checker) check(ctx context.Context, s *sample) error {
	if s.status != "finished" {
		return nil
	}
	st, err := c.stmt(s.req.canon)
	if err != nil {
		return err
	}
	lo, hi := c.window(s, st.tables)
	match := func(from, to map[string]int) (bool, error) {
		for _, at := range combos(from, to) {
			ref, err := c.reference(ctx, s.req.canon, at)
			if err != nil {
				return false, err
			}
			if sameRows(ref, s.rows, st.ordered) {
				return true, nil
			}
		}
		return false, nil
	}
	ok, err := match(lo, hi)
	if err != nil || ok {
		return err
	}
	zero := map[string]int{}
	for t := range lo {
		zero[t] = 0
	}
	if old, err := match(zero, lo); err != nil {
		return err
	} else if old {
		s.verdict = "stale"
	} else {
		s.verdict = "wrong"
	}
	ref, err := c.reference(ctx, s.req.canon, lo)
	s.note = fmt.Sprintf("versions %v..%v, reference at %v: %v", lo, hi, lo, ref)
	return err
}

// combos enumerates every version assignment between from and to.
func combos(from, to map[string]int) []map[string]int {
	out := []map[string]int{{}}
	for _, t := range sortedKeys(from) {
		var next []map[string]int
		for _, m := range out {
			for v := from[t]; v <= to[t]; v++ {
				cp := map[string]int{t: v}
				for k, x := range m {
					cp[k] = x
				}
				next = append(next, cp)
			}
		}
		out = next
	}
	return out
}

// countOracle flags as stale any COUNT(*) over a whole written table that
// misses rows of an INSERT acknowledged before the query was submitted.
func (c *checker) countOracle(s *sample) {
	if s.status != "finished" || len(s.rows) != 1 || len(s.rows[0]) != 1 {
		return
	}
	fields := strings.Fields(strings.ToUpper(strings.TrimSuffix(s.req.canon, ";")))
	if len(fields) != 4 || fields[0] != "SELECT" || fields[1] != "COUNT(*)" || fields[2] != "FROM" {
		return
	}
	table := strings.ToLower(fields[3])
	base, ok := c.base[table]
	if !ok {
		return
	}
	want := base.RowCount()
	for _, w := range c.versions[table] {
		if w.ack.Before(s.posted) {
			want += rowsPerInsert
		}
	}
	got, err := strconv.ParseInt(s.rows[0][0], 10, 64)
	if err != nil || got < want {
		s.verdict = "stale"
		s.note = fmt.Sprintf("count %s, want at least %d", s.rows[0][0], want)
	}
}

// sameRows compares two results: in order when the query orders them,
// else as multisets. Numeric cells may differ in the last bits, as float
// sums in another association order do.
func sameRows(want, got [][]string, ordered bool) bool {
	if len(want) != len(got) {
		return false
	}
	if !ordered {
		want, got = sortedRows(want), sortedRows(got)
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return false
		}
		for j := range want[i] {
			if !sameCell(want[i][j], got[i][j]) {
				return false
			}
		}
	}
	return true
}

func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "\x00") < strings.Join(out[j], "\x00") })
	return out
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// checkAll checks every sample of a run on nproc goroutines and returns
// how long it took.
func (c *checker) checkAll(ctx context.Context, samples []*sample) (time.Duration, error) {
	start := time.Now()
	next := make(chan *sample)
	errs := make(chan error, nproc())
	var wg sync.WaitGroup
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				if err := c.check(ctx, s); err != nil {
					errs <- fmt.Errorf("reference for %q: %w", s.req.canon, err)
					for range next {
					}
					return
				}
				if s.verdict == "" {
					c.countOracle(s)
				}
			}
		}()
	}
	for _, s := range samples {
		next <- s
	}
	close(next)
	wg.Wait()
	close(errs)
	return time.Since(start), <-errs
}
