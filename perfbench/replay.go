package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/qcache"
	"repro/internal/sql"
)

// replayPerKind caps how many distinct statements of one template the
// replay executes, which bounds its length on adhoc and tiered where
// nearly every statement is distinct.
const replayPerKind = 6

// replayStats are the replay's per-layer counts.
type replayStats struct {
	vmRuns, cfRuns     int
	rgRead, rgPruned   int64
	bytesIntermediate  int64
	storeTimeInVM      time.Duration
	runVMByKind        map[string][]time.Duration
	planHits, planMiss []time.Duration
}

// replay runs each distinct input of a traced run once through the public
// layer functions, with a span around each call: translation, parsing,
// the plan cache and planning for every distinct text; VM execution and
// the CF split, workers and merge for up to replayPerKind distinct
// statements per template. It runs on a fresh engine over the DB's
// catalog and a timing wrapper around the DB's store, and checks the rows
// of both execution paths against the reference.
func replay(ctx context.Context, d *deployment, samples []*sample, rec *recorder, chk *checker) (*replayStats, error) {
	cat := d.db.Engine().Catalog()
	ts := &timingStore{Store: d.db.Engine().Store(), rec: rec}
	eng := engine.New(cat, ts)
	qc := qcache.New(qcache.Config{Catalog: cat, Planner: eng.PlanQuery, PlanEntries: 1024})
	schema, err := nl2sql.SchemaFromCatalog(cat, database)
	if err != nil {
		return nil, err
	}
	xl := &nl2sql.Template{}
	st := &replayStats{runVMByKind: map[string][]time.Duration{}}
	final := map[string]int{}
	for t, vs := range chk.versions {
		final[t] = len(vs)
	}

	timed := func(name string, f func() error) (time.Duration, error) {
		sp := rec.start(nil, name, time.Now())
		ts.parent.Store(sp)
		err := f()
		rec.end(sp, time.Now())
		ts.parent.Store(nil)
		return sp.dur(), err
	}

	seenQ, seenText, seenCanon := map[string]bool{}, map[string]bool{}, map[string]bool{}
	perKind := map[string]int{}
	for _, s := range samples {
		if s.req.question != "" && !seenQ[s.req.question] {
			seenQ[s.req.question] = true
			if _, err := timed("nl2sql.translate", func() error {
				_, err := xl.Translate(nl2sql.Request{Question: s.req.question, Schema: schema})
				return err
			}); err != nil {
				return nil, fmt.Errorf("translate %q: %w", s.req.question, err)
			}
		}
		if s.req.sql == "" || seenText[s.req.sql] {
			continue
		}
		seenText[s.req.sql] = true
		var stmt sql.Statement
		if _, err := timed("sql.parse", func() (err error) { stmt, err = sql.Parse(s.req.sql); return err }); err != nil {
			return nil, fmt.Errorf("parse %q: %w", s.req.sql, err)
		}
		sel, ok := stmt.(*sql.Select)
		if !ok {
			return nil, fmt.Errorf("not a SELECT: %q", s.req.sql)
		}
		if _, err := timed("plan.plan", func() error { _, err := eng.PlanQuery(database, sel); return err }); err != nil {
			return nil, fmt.Errorf("plan %q: %w", s.req.sql, err)
		}
		for i := 0; i < 2; i++ {
			misses := qc.Snapshot().Plan.Misses
			dur, err := timed("qcache.plan", func() error { _, _, err := qc.Plan(database, s.req.sql, 0); return err })
			if err != nil {
				return nil, fmt.Errorf("qcache plan %q: %w", s.req.sql, err)
			}
			if qc.Snapshot().Plan.Misses > misses {
				st.planMiss = append(st.planMiss, dur)
			} else {
				st.planHits = append(st.planHits, dur)
			}
		}

		if seenCanon[s.req.canon] || perKind[s.req.kind] >= replayPerKind {
			continue
		}
		seenCanon[s.req.canon] = true
		perKind[s.req.kind]++
		if err := replayExec(ctx, eng, rec, timed, chk, s, final, st); err != nil {
			return nil, fmt.Errorf("replay %q: %w", s.req.canon, err)
		}
	}
	return st, nil
}

// replayExec runs one statement through the VM path and the CF path.
func replayExec(ctx context.Context, eng *engine.Engine, rec *recorder,
	timed func(string, func() error) (time.Duration, error), chk *checker, s *sample, final map[string]int, st *replayStats) error {
	info, err := chk.stmt(s.req.canon)
	if err != nil {
		return err
	}
	at := map[string]int{}
	for _, t := range info.tables {
		if v, ok := final[t]; ok {
			at[t] = v
		}
	}
	ref, err := chk.reference(ctx, s.req.canon, at)
	if err != nil {
		return err
	}
	sel, err := parseSelect(s.req.canon)
	if err != nil {
		return err
	}
	node, err := eng.PlanQuery(database, sel)
	if err != nil {
		return err
	}
	var res *engine.Result
	rec.mu.Lock()
	before := len(rec.spans)
	rec.mu.Unlock()
	dur, err := timed("engine.run_vm", func() (err error) { res, err = eng.RunPlanParallel(ctx, node, 0); return err })
	if err != nil {
		return err
	}
	if !sameRows(ref, rowStrings(res), info.ordered) {
		return fmt.Errorf("VM path rows differ from the serial reference")
	}
	st.vmRuns++
	st.runVMByKind[s.req.kind] = append(st.runVMByKind[s.req.kind], dur)
	st.rgRead += int64(res.Stats.RowGroupsRead)
	st.rgPruned += int64(res.Stats.RowGroupsPruned)
	rec.mu.Lock()
	for _, sp := range rec.spans[before:] {
		if sp.name == "objstore.get" {
			st.storeTimeInVM += sp.dur()
		}
	}
	rec.mu.Unlock()

	// Plan afresh: execution may memoize state in the plan it ran.
	if sel, err = parseSelect(s.req.canon); err != nil {
		return err
	}
	if node, err = eng.PlanQuery(database, sel); err != nil {
		return err
	}
	var split *engine.CFSplit
	qid := fmt.Sprintf("replay-%d", st.cfRuns)
	if _, err := timed("engine.cf_split", func() (err error) { split, err = eng.SplitForCF(node, qid, 8); return err }); err != nil {
		return err
	}
	interms := make([]catalog.FileMeta, len(split.Tasks))
	for i := range split.Tasks {
		if _, err := timed("engine.cf_task", func() (err error) { interms[i], _, err = eng.RunWorker(ctx, split, i); return err }); err != nil {
			return err
		}
	}
	if _, err := timed("engine.cf_merge", func() (err error) { res, err = eng.MergeResults(ctx, split, interms); return err }); err != nil {
		return err
	}
	if !sameRows(ref, rowStrings(res), info.ordered) {
		return fmt.Errorf("CF path rows differ from the serial reference")
	}
	st.cfRuns++
	st.bytesIntermediate += res.Stats.BytesIntermediate
	return nil
}

func rowStrings(res *engine.Result) [][]string {
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = make([]string, len(r))
		for j, v := range r {
			rows[i][j] = v.String()
		}
	}
	return rows
}
