// Command perfbench is the repository's benchmark. It opens one fixed
// PixelsDB deployment, serves it over an in-process HTTP listener and
// drives one of three seeded workloads through /v1, then checks every
// query's output against a serial reference and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON line.
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
//
// The workloads (see workloads.go) each load a different layer: adhoc the
// engine, object store and read cache; dashboard the query cache, the NL
// translator, the server and the write path; tiered admission, tier
// routing and the cloud-function path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// budget bounds one invocation; the caller allows 180 s.
const budget = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "adhoc, dashboard or tiered")
	seed := fs.Int64("seed", 1, "seed of the data and the traffic")
	seconds := fs.Int("seconds", 10, "length of the measured run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from counters, a traced run and a replay")
	workdir := fs.String("workdir", ".bench_build", "directory for the data and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload adhoc|dashboard|tiered, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	b := &bench{sp: sp, seed: *seed, length: time.Duration(*seconds) * time.Second,
		dir: filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())), out: stdout}
	defer os.RemoveAll(b.dir)
	var res *result
	var err error
	if *trace == 0 {
		res, err = b.timed(ctx)
	} else {
		res, err = b.traced(ctx, *workdir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong or stale results\n", res.wrong)
		return 1
	}
	return 0
}

type bench struct {
	sp     spec
	seed   int64
	length time.Duration
	dir    string
	out    io.Writer
	setups int
}

// result is what one invocation prints.
type result struct {
	correct           bool
	attempted, failed int
	wrong             int
	metrics           []metric
}

// deploy sets up a fresh deployment and times it.
func (b *bench) deploy(ctx context.Context) (*deployment, time.Duration, error) {
	b.setups++
	runtime.GC()
	start := time.Now()
	d, err := setup(ctx, b.sp, b.seed, filepath.Join(b.dir, fmt.Sprint(b.setups)))
	return d, time.Since(start), err
}

// measure drives one run on d and checks every output.
func (b *bench) measure(ctx context.Context, d *deployment, rec *recorder) (*runResult, *checker, error) {
	base, err := snapshotTables(d)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	r := drive(ctx, d, b.sp, b.seed, b.length, rec)
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("run did not finish in time: %w", ctx.Err())
	}
	chk, err := newChecker(d, base, r.inserts)
	if err != nil {
		return nil, nil, err
	}
	took, err := chk.checkAll(ctx, r.samples)
	if err != nil {
		return nil, nil, err
	}
	t := countRun(r)
	fmt.Fprintf(b.out, "# %s seed=%d: %d reads, %d writes, %d failed, %d wrong or stale; checked in %.1fs; data %.1f MiB = %.2f x the read cache\n",
		b.sp.name, b.seed, t.reads, t.writes, t.failed(), t.wrong, took.Seconds(), float64(d.dataBytes)/(1<<20), float64(d.dataBytes)/cacheBytes)
	reported := map[string]bool{}
	for _, s := range r.samples {
		f := s.failure()
		if f == "" || reported[s.status+s.verdict] {
			continue
		}
		reported[s.status+s.verdict] = true
		fmt.Fprintf(b.out, "#   first %s: %s\n", f, oneLine(s.req.sql))
		if s.verdict != "" {
			fmt.Fprintf(b.out, "#     rows %v; %s\n", s.rows, s.note)
		}
	}
	return r, chk, nil
}

// setupRounds is how many times a timed invocation sets up; setup_s is
// the median.
const setupRounds = 5

// timed reports the end-to-end metrics of one untraced run.
func (b *bench) timed(ctx context.Context) (*result, error) {
	var d *deployment
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		if d, took, err = b.deploy(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, took.Seconds())
	}
	defer d.close()
	r, _, err := b.measure(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	ms := endToEnd(d, r, b.length, median(times))
	for _, m := range ms {
		if m.omitted {
			return nil, fmt.Errorf("%s has too few samples (%d) for its percentile; lengthen the run", m.name, m.n)
		}
	}
	printHuman(b.out, ms)
	extra := append(serviceMetrics(r), coreMetrics(billsOf(d, r), d, r)...)
	printHuman(b.out, append(extra, counterMetrics(r.before, r.after, len(r.samples), bytesScanned(d, r))...))
	return newResult(r, ms), nil
}

// traced reports the per-layer metrics: counters and service figures from
// an untraced run, spans from a traced run of the same workload, seed and
// length on a second deployment, and a replay of the traced run's inputs.
func (b *bench) traced(ctx context.Context, workdir string) (*result, error) {
	d, _, err := b.deploy(ctx)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, _, err := b.measure(ctx, d, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	ms := serviceMetrics(plain)
	ms = append(ms, coreMetrics(billsOf(d, plain), d, plain)...)
	ms = append(ms, counterMetrics(plain.before, plain.after, len(plain.samples), bytesScanned(d, plain))...)
	d.close()

	if d, _, err = b.deploy(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	rec := &recorder{}
	tr, chk, err := b.measure(ctx, d, rec)
	if err != nil {
		return nil, err
	}
	addLedgerSpans(d, tr, rec)
	rs, err := replay(ctx, d, tr.samples, rec, chk)
	if err != nil {
		return nil, err
	}
	ms = append(ms, spanMetrics(tr, rec, rs)...)
	traced := windowedPct("", "", latencies(tr, nil), 50)
	untraced := windowedPct("", "", latencies(plain, nil), 50)
	ms = append(ms, metric{name: "trace.overhead_frac", unit: "ratio", value: frac(traced.value, untraced.value) - 1})
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", b.sp.name, b.seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "# spans: %s\n", path)
	printHuman(b.out, ms)
	res := newResult(plain, ms)
	t := countRun(tr)
	res.attempted += t.attempted()
	res.failed += t.failed()
	res.wrong += t.wrong
	res.correct = res.wrong == 0
	return res, nil
}

// addLedgerSpans records each query's pending and exec intervals, from its
// bill, as children of its wait span.
func addLedgerSpans(d *deployment, r *runResult, rec *recorder) {
	bills := map[string]int{}
	all := d.db.Ledger().All()
	for i, b := range all {
		bills[b.QueryID] = i
	}
	for _, s := range r.samples {
		i, ok := bills[s.id]
		if !ok || s.wait == nil {
			continue
		}
		b := all[i]
		rec.add(s.wait, "core.pending", b.SubmitTime, b.StartTime)
		rec.add(s.wait, "core.exec", b.StartTime, b.EndTime)
	}
}

func bytesScanned(d *deployment, r *runResult) int64 {
	var n int64
	for _, b := range billsOf(d, r) {
		n += b.BytesScanned
	}
	return n
}

func newResult(r *runResult, ms []metric) *result {
	t := countRun(r)
	return &result{correct: t.wrong == 0, attempted: t.attempted(), failed: t.failed(), wrong: t.wrong, metrics: ms}
}

// printHuman prints one commented line per metric, with its sample count.
func printHuman(w io.Writer, ms []metric) {
	for _, m := range ms {
		parts := ""
		if m.windowed {
			parts = fmt.Sprintf(" windows %.4g", m.parts)
		}
		switch {
		case m.omitted:
			fmt.Fprintf(w, "#   %-40s n/a %s (n=%d)\n", m.name, m.unit, m.n)
		case m.n > 0:
			fmt.Fprintf(w, "#   %-40s %.6g %s (n=%d)%s\n", m.name, m.value, m.unit, m.n, parts)
		default:
			fmt.Fprintf(w, "#   %-40s %.6g %s%s\n", m.name, m.value, m.unit, parts)
		}
	}
}

// print writes the result line: the last line of standard output.
func (r *result) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	if r.attempted < 1 {
		return errors.New("no request was attempted")
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }
