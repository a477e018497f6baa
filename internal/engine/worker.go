package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pixfile"
	"repro/internal/plan"
)

// WorkerRequest is the complete job description one CF worker receives: the
// serialized fragment, the file partition to run it over, and the object key
// to write the intermediate to. It is self-contained — a worker process
// reconstructs everything it needs (store, fragment, fault plan) from the
// request alone, with no catalog and no shared memory.
type WorkerRequest struct {
	QueryID string `json:"query_id"`
	Task    int    `json:"task"`
	// Attempt distinguishes retries and speculative duplicates of the same
	// task. Each attempt writes to its own OutKey, so a retry can never read
	// or be confused with a failed attempt's partial output.
	Attempt int                `json:"attempt"`
	Plan    *wireNode          `json:"plan"`
	Files   []catalog.FileMeta `json:"files"`
	OutKey  string             `json:"out_key"`

	// StoreDir is the disk-store root a worker process opens. Ignored by
	// in-process invokers, which share the coordinator's store directly.
	StoreDir string `json:"store_dir,omitempty"`
	// Fault, when set, wraps the worker's store in a FaultStore — the
	// harness ships the fault plan to the worker so injected store errors
	// happen inside the worker process, where recovery must work.
	Fault *objstore.FaultConfig `json:"fault,omitempty"`
	// Interpreted disables the vectorized kernels, mirroring the
	// coordinator engine's setting so both sides evaluate identically.
	Interpreted bool `json:"interpreted,omitempty"`
	// Trace asks the worker to record per-operator spans for its fragment
	// and ship them back in WorkerResponse.Spans. Execution, stats and
	// billed bytes are identical either way.
	Trace bool `json:"trace,omitempty"`
}

// WorkerResponse is what a worker reports back: the intermediate it wrote
// and the scan statistics it accumulated, or an error. A response carrying
// an error always carries zero Stats — a failed attempt must contribute
// nothing to the query's billed bytes, or retries would double-bill.
type WorkerResponse struct {
	Interm catalog.FileMeta `json:"interm"`
	Stats  Stats            `json:"stats"`
	Error  string           `json:"error,omitempty"`
	// Spans is the fragment's span tree when the request set Trace. The
	// coordinator grafts it under the winning attempt's span, so under
	// speculation only the winner's spans appear in the query trace.
	Spans *obs.SpanData `json:"spans,omitempty"`
}

// NewWorkerRequest serializes one task of a split into a self-contained
// request for the given attempt.
func NewWorkerRequest(split *CFSplit, task, attempt int) (*WorkerRequest, error) {
	if task < 0 || task >= len(split.Tasks) {
		return nil, fmt.Errorf("engine: task %d out of range %d", task, len(split.Tasks))
	}
	if split.buildJoin != nil {
		// Same restriction as RunWorker: a worker process would have to
		// rebuild the join's build side per task, inflating billed bytes.
		return nil, fmt.Errorf("engine: shared-build join split cannot run as a CF worker")
	}
	wp, err := encodeNode(split.workerPlan)
	if err != nil {
		return nil, err
	}
	return &WorkerRequest{
		QueryID: split.QueryID,
		Task:    task,
		Attempt: attempt,
		Plan:    wp,
		Files:   split.Tasks[task].Files,
		OutKey:  intermAttemptKey(split.QueryID, task, attempt),
	}, nil
}

// intermAttemptKey is the object key one attempt of one task writes. Every
// attempt gets its own key under the query's intermediate prefix; the
// coordinator records the winner's key and deletes the whole prefix after
// the merge, which also sweeps orphans left by failed or duplicated
// attempts.
func intermAttemptKey(queryID string, part, attempt int) string {
	return fmt.Sprintf("%spart-%05d.a%d.pxl", objstore.IntermediatePrefix(queryID), part, attempt)
}

// decodeWorkerPlan rebuilds a fragment and locates its partitioned scan. A
// CF-safe fragment contains exactly one scan (RunWorker rejects the only
// split shape with two).
func decodeWorkerPlan(w *wireNode) (plan.Node, *plan.ScanNode, error) {
	node, err := decodeNode(w)
	if err != nil {
		return nil, nil, err
	}
	scans := plan.Scans(node)
	if len(scans) != 1 {
		return nil, nil, fmt.Errorf("engine: worker fragment has %d scans, want 1", len(scans))
	}
	return node, scans[0], nil
}

// executeFragment runs a fragment over a file partition and writes the
// result as a pixfile at outKey. Batches stream straight into the file
// writer (exec.Each), so worker memory stays bounded by a row group. On any
// error the returned Stats are zero: a failed attempt is retried, and its
// bytes must not count toward the query or billed bytes would depend on how
// far the failure got.
func (e *Engine) executeFragment(ctx context.Context, node plan.Node, scan *plan.ScanNode, files []catalog.FileMeta, outKey string) (catalog.FileMeta, Stats, error) {
	// Scope the fragment's scan pipelines to this call.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stats := &Stats{}
	overrides := map[*plan.ScanNode]scanOverride{
		scan: {files: files},
	}
	op, err := exec.BuildWith(node, e.buildEnv(ctx, stats, overrides, pipelineEligible(node), obs.SpanFrom(ctx)))
	if err != nil {
		return catalog.FileMeta{}, Stats{}, err
	}
	w := pixfile.NewWriter(node.Schema(), pixfile.WriterOptions{})
	var rows int64
	err = exec.Each(op, func(b *col.Batch) error {
		rows += int64(b.N)
		return w.Append(b)
	})
	if err != nil {
		return catalog.FileMeta{}, Stats{}, err
	}
	data, err := w.Finish()
	if err != nil {
		return catalog.FileMeta{}, Stats{}, err
	}
	if err := e.store.Put(outKey, data); err != nil {
		return catalog.FileMeta{}, Stats{}, err
	}
	return catalog.FileMeta{Key: outKey, Size: int64(len(data)), Rows: rows}, *stats, nil
}

// ExecuteWorkerRequest decodes and runs a worker request against this
// engine's store. It is the single execution path shared by the worker
// process (WorkerMain) and the in-process LocalInvoker, so both exercise
// the same serialization round trip.
func (e *Engine) ExecuteWorkerRequest(ctx context.Context, req *WorkerRequest) *WorkerResponse {
	// A traced request records the fragment under a worker-local trace;
	// its snapshot ships back in the response and the coordinator grafts
	// it under the winning attempt's span.
	var wtr *obs.Trace
	if req.Trace {
		wtr = obs.NewTrace(req.QueryID, fmt.Sprintf("fragment:t%d.a%d", req.Task, req.Attempt))
		ctx = obs.ContextWithTrace(ctx, wtr)
	}
	node, scan, err := decodeWorkerPlan(req.Plan)
	if err != nil {
		return &WorkerResponse{Error: err.Error()}
	}
	meta, stats, err := e.executeFragment(ctx, node, scan, req.Files, req.OutKey)
	if err != nil {
		return &WorkerResponse{Error: err.Error()}
	}
	resp := &WorkerResponse{Interm: meta, Stats: stats}
	if wtr != nil {
		root := wtr.Root()
		root.SetAttr("out_rows", meta.Rows)
		root.SetAttr("out_bytes", meta.Size)
		root.End()
		resp.Spans = wtr.Data()
	}
	return resp
}

// WorkerMain is the entry point of a CF worker process: it reads one JSON
// WorkerRequest from stdin, executes it against the request's disk store,
// writes one JSON WorkerResponse to stdout and returns the process exit
// code. cmd/pixels-worker calls it from main; test binaries call it from
// TestMain when re-executed as workers, so multi-process tests need no
// separately built binary.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	// A killed coordinator must not leave orphan workers: exit on the
	// signals process groups receive at teardown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) int {
		// Protocol errors still produce a well-formed response when
		// possible; the exit code tells the invoker regardless.
		_ = json.NewEncoder(stdout).Encode(&WorkerResponse{Error: err.Error()})
		fmt.Fprintln(stderr, "pixels-worker:", err)
		return 1
	}

	var req WorkerRequest
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		return fail(fmt.Errorf("decode request: %w", err))
	}
	if req.StoreDir == "" {
		return fail(fmt.Errorf("request has no store_dir"))
	}
	var store objstore.Store
	disk, err := objstore.NewDisk(req.StoreDir)
	if err != nil {
		return fail(err)
	}
	store = disk
	if req.Fault != nil {
		store = objstore.NewFaultStore(store, *req.Fault)
	}

	e := New(catalog.New(), store)
	e.SetVectorized(!req.Interpreted)
	resp := e.ExecuteWorkerRequest(ctx, &req)
	if err := json.NewEncoder(stdout).Encode(resp); err != nil {
		fmt.Fprintln(stderr, "pixels-worker:", err)
		return 1
	}
	if resp.Error != "" {
		return 1
	}
	return 0
}
