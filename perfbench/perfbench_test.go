package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cfsim"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/qcache"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 95, 190, true}, // rank 190, ten samples above it
		{199, 95, 0, false},  // rank 190, nine above: omitted
		{20, 50, 10, true},   // rank 10, ten above
		{19, 50, 0, false},   // rank 10, nine above
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRatioBases(t *testing.T) {
	before := counters{
		store:  objstore.Usage{Gets: 10, Puts: 1, BytesRead: 1000},
		cache:  cache.Stats{Hits: 5, Misses: 5, PrefetchIssued: 2, PrefetchWasted: 1, Evictions: 3},
		qc:     qcache.Snapshot{Plan: qcache.PlanStats{Hits: 1, Misses: 1}, Result: qcache.ResultStats{Hits: 2, Misses: 2}},
		adm:    admission.Snapshot{Tiers: []admission.TierSnapshot{{Submitted: 4, Shed: 1}}},
		cf:     cfsim.Usage{Invocations: 2, ColdStarts: 1, GBSeconds: 1},
		allocs: 100, gcCPU: 1, idleCPU: 1, allCPU: 10,
	}
	after := counters{
		store:  objstore.Usage{Gets: 50, Puts: 5, BytesRead: 9000},
		cache:  cache.Stats{Hits: 35, Misses: 15, PrefetchIssued: 10, PrefetchWasted: 3, Evictions: 23},
		qc:     qcache.Snapshot{Plan: qcache.PlanStats{Hits: 7, Misses: 3, Invalidations: 2}, Result: qcache.ResultStats{Hits: 5, Misses: 6}},
		adm:    admission.Snapshot{Tiers: []admission.TierSnapshot{{Submitted: 14, Shed: 3, MaxQueueDepth: 2}, {Submitted: 10, MaxQueueDepth: 5}}},
		cf:     cfsim.Usage{Invocations: 12, ColdStarts: 4, GBSeconds: 5},
		allocs: 1100, gcCPU: 3, idleCPU: 6, allCPU: 30,
	}
	got := map[string]float64{}
	for _, m := range counterMetrics(before, after, 20, 4000) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"cache.hit_frac":              30.0 / 40,     // hits ÷ (hits + misses)
		"cache.prefetch_wasted_frac":  2.0 / 8,       // wasted ÷ issued
		"cache.evictions_per_query":   20.0 / 20,     // ÷ reads
		"qcache.plan_hit_frac":        6.0 / 8,       // plan hits ÷ plan lookups
		"qcache.result_hit_frac":      3.0 / 7,       // result hits ÷ result lookups
		"qcache.invalidations":        2,             // a count, no base
		"admission.shed_frac":         2.0 / 20,      // shed ÷ submitted, all tiers
		"admission.max_queue_depth":   5,             // the deepest tier
		"objstore.gets_per_query":     40.0 / 20,     // ÷ reads
		"objstore.puts_per_query":     4.0 / 20,      // ÷ reads
		"objstore.read_amplification": 8000.0 / 4000, // store bytes ÷ billed bytes scanned
		"cfsim.invocations_per_query": 10.0 / 20,
		"cfsim.cold_starts":           3,
		"cfsim.gb_s_per_query":        4.0 / 20,
		"go.allocs_per_query":         1000.0 / 20,
		"go.gc_cpu_frac":              2.0 / 20, // GC CPU ÷ available CPU
		"go.cpu_busy_frac":            1 - 5.0/20,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("counterMetrics reports %d metrics, the test checks %d", len(got), len(want))
	}

	// error_frac counts failed reads and writes against everything attempted.
	r := &runResult{
		samples: []*sample{{status: "finished"}, {status: "shed"}, {status: "finished", verdict: "stale"}, {status: "finished"}},
		inserts: []*insertRec{{}, {err: os.ErrClosed}},
	}
	for _, m := range serviceMetrics(r) {
		if m.name == "error_frac" && m.value != 3.0/6 {
			t.Errorf("error_frac = %v, want 3/6", m.value)
		}
	}
	if frac(1, 0) != 0 {
		t.Errorf("frac with an empty base must be 0")
	}
}

func TestSelfTimeAndUnexplained(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []*span{
		{id: 1, name: "request", start: at(0), end: at(100)}, // direct children leave 95-100 uncovered
		{id: 2, parent: 1, name: "submit", start: at(0), end: at(10)},
		{id: 3, parent: 1, name: "wait", start: at(10), end: at(90)},
		{id: 4, parent: 3, name: "core.pending", start: at(10), end: at(30)},
		{id: 5, parent: 3, name: "core.exec", start: at(25), end: at(80)}, // overlaps pending
		{id: 6, parent: 1, name: "result", start: at(90), end: at(95)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 5 * time.Millisecond, 3: 10 * time.Millisecond, 5: 55 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	// Layers cover 0-10, 10-80 and 90-95 of 100 ms: 15 ms are unexplained.
	if got := unexplainedFrac(spans); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("unexplainedFrac = %v, want 0.15", got)
	}
}

func TestSameRows(t *testing.T) {
	a := [][]string{{"A", "1.0000000000001"}, {"B", "2"}}
	b := [][]string{{"B", "2"}, {"A", "1"}}
	if !sameRows(a, b, false) {
		t.Errorf("unordered rows with float noise should match")
	}
	if sameRows(a, b, true) {
		t.Errorf("ordered comparison must respect row order")
	}
	if sameRows(a, [][]string{{"A", "1"}, {"B", "3"}}, false) {
		t.Errorf("different values must not match")
	}
}

// TestSmoke runs every workload briefly and checks that the result line
// names every metric of BENCHMARK.json with a unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range def.Workloads {
		for _, tc := range []struct {
			trace, seconds string
			want           []struct{ Name, Unit string }
		}{{"0", "5", def.EndToEnd}, {"1", "1", def.PerLayer}} {
			if tc.trace == "0" && w.Name == "adhoc" {
				continue // needs a full-length run for its p95
			}
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", tc.seconds, "--trace", tc.trace, "--workdir", dir}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, tc.trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.Name, tc.trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", w.Name, tc.trace, res.Correct, res.Attempted)
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want a value in %s", w.Name, tc.trace, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.Name, tc.trace, len(res.Metrics), len(tc.want))
			}
		}
	}
}

func TestWindowCountsUnackedInserts(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &checker{versions: map[string][]*insertRec{
		"orders": {{started: at(10), ack: at(12)}, {started: at(50), ack: at(52)}},
	}}
	// Submitted before any INSERT was acknowledged, done after the first
	// started: versions 0 and 1 are both possible.
	lo, hi := c.window(&sample{posted: at(5), done: at(20)}, []string{"orders", "customer"})
	if lo["orders"] != 0 || hi["orders"] != 1 {
		t.Fatalf("window = %v..%v, want orders 0..1", lo, hi)
	}
	if _, ok := lo["customer"]; ok {
		t.Errorf("an unwritten table has no versions: %v", lo)
	}
	if got := combos(lo, hi); len(got) != 2 {
		t.Errorf("combos(%v, %v) = %v, want versions 0 and 1", lo, hi, got)
	}
}
