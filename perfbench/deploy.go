package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/cfsim"
	"repro/internal/vmsim"
)

const (
	database = "tpch"
	// cacheBytes is the read-cache capacity every workload shares. adhoc's
	// data is several times larger; dashboard's fits inside.
	cacheBytes = 4 << 20
	// vmSlots (one VM with two slots) equals the closed-loop client count
	// on the 2-CPU reference host, so adhoc and dashboard never find the
	// slots full while tiered's open loop does.
	slotsPerVM = 2
)

// options is the one deployment every workload runs against.
func options(dir string, seed int64) pixelsdb.Options {
	return pixelsdb.Options{
		DataDir:       dir,
		CacheSize:     cacheBytes,
		PlanCache:     true,
		ResultCacheMB: 16,
		Admission:     &admission.Config{},
		InitialVMs:    1,
		Parallelism:   1,
		VM:            vmsim.Config{SlotsPerVM: slotsPerVM},
		// Relaxed queries that find both VM slots busy wait for one, as
		// they would for minutes in production; the bound only matters
		// under overload, which no workload reaches.
		GracePeriod: time.Second,
		// Equal, small start latencies: how many cold starts happen depends
		// on peak CF concurrency, which must not move latency.
		CF:   cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond},
		Seed: seed,
	}
}

// deployment is an open DB served over an in-process HTTP listener.
type deployment struct {
	db        *pixelsdb.DB
	srv       *httptest.Server
	cl        *client
	dir       string
	dataBytes int64
}

// setup opens a fresh disk-backed DB, loads the workload's data, serves
// it and warms it: read cache filled, plan and result caches primed with
// warm-up statements, CF pool warm.
func setup(ctx context.Context, sp spec, seed int64, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := pixelsdb.Open(options(dir, seed))
	if err != nil {
		return nil, err
	}
	d := &deployment{db: db, dir: dir}
	if err := db.LoadSampleData(database, sp.sf); err != nil {
		d.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	tables, err := db.Engine().Catalog().ListTables(database)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, name := range tables {
		t, err := db.Engine().Catalog().GetTable(database, name)
		if err != nil {
			d.close()
			return nil, err
		}
		d.dataBytes += t.TotalBytes()
	}
	d.srv = httptest.NewServer(db.Handler(database, ""))
	d.cl = newClient(d.srv.URL, db)
	if err := d.warm(ctx, sp, seed); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// warm runs a warm-up stream from a seed the measured run never uses:
// first through /v1 (the HTTP path, read cache and plan cache), then a
// burst of Immediate submissions wider than the VM slots so CF workers
// start and stay warm.
func (d *deployment) warm(ctx context.Context, sp spec, seed int64) error {
	gen := sp.newGen(-1-seed, sp.sf)
	for i := 0; i < 8; i++ {
		r := gen.next()
		if r.question != "" {
			continue
		}
		s := d.cl.do(ctx, r, nil)
		if s.failure() != "" {
			return fmt.Errorf("%s: %s", s.failure(), r.sql)
		}
	}
	// Each spilled query starts one CF worker per file partition of
	// lineitem.
	var burst []*pixelsdb.Query
	for i := 0; i < 2*slotsPerVM+2; i++ {
		q, err := d.db.Submit(database, fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_quantity > %d", 7+i), pixelsdb.Immediate)
		if err != nil {
			return err
		}
		burst = append(burst, q)
	}
	for _, q := range burst {
		select {
		case <-q.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := q.Err(); err != nil {
			return err
		}
	}
	if d.db.CFService().Usage().Invocations == 0 {
		return fmt.Errorf("the CF pool was not warmed: no query spilled")
	}
	return nil
}

func (d *deployment) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.cl != nil {
		d.cl.hc.CloseIdleConnections()
	}
	_ = d.db.Close()
	_ = os.RemoveAll(d.dir)
}

// nproc is the client concurrency: closed-loop clients, open-loop
// goroutines and HTTP connections are all capped by it.
func nproc() int { return runtime.NumCPU() }
