package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/server"
)

// client drives one deployment through /v1 and observes completion on the
// DB's own query handle.
type client struct {
	base string
	hc   *http.Client
	db   *pixelsdb.DB
}

// newClient caps the client at nproc connections to the server.
func newClient(base string, db *pixelsdb.DB) *client {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		DisableCompression:  true,
	}}
	return &client{base: base, hc: hc, db: db}
}

// sample is what the benchmark saw of one request.
type sample struct {
	req    request
	id     string
	due    time.Time // open loop: when the request was due; else when sent
	sent   time.Time
	posted time.Time // the SELECT was submitted (after translation)
	acked  time.Time // submit response received
	done   time.Time // the query handle reported completion
	end    time.Time // decoded /v1 result in hand

	status        string // finished | failed | shed | transport
	errText       string
	rows          [][]string
	chunksSkipped int64
	respBytes     int
	verdict       string // set by the output check: "" ok, "wrong" or "stale"
	note          string // why the check failed

	root, wait *span // traced runs: the request's root span and its wait span
}

// failure names why the request does not count as a correct answer.
func (s *sample) failure() string {
	switch {
	case s.status != "finished":
		return s.status + ": " + s.errText
	case s.verdict != "":
		return s.verdict
	}
	return ""
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// do runs one request end to end: translate (NL only), submit, wait,
// fetch. rec, when non-nil, records a span around each step.
func (c *client) do(ctx context.Context, r request, rec *recorder) *sample {
	now := time.Now()
	s := &sample{req: r, due: now, sent: now}
	if c.send(ctx, s, rec) {
		c.finish(ctx, s, rec)
	}
	rec.end(s.root, s.end)
	return s
}

// send translates (NL only) and submits; false means the request already
// ended (shed or transport error) and s.end is set.
func (c *client) send(ctx context.Context, s *sample, rec *recorder) bool {
	s.root = rec.start(nil, "request", s.due)
	if s.sent.After(s.due) {
		rec.end(rec.start(s.root, "loadgen.schedule", s.due), s.sent)
	}
	return c.translate(ctx, s, rec, s.root) && c.submit(ctx, s, rec, s.root)
}

func (c *client) translate(ctx context.Context, s *sample, rec *recorder, root *span) bool {
	if s.req.question == "" {
		return true
	}
	sp := rec.start(root, "translate", time.Now())
	var tr server.TranslateResponse
	_, _, err := c.roundTrip(ctx, http.MethodPost, "/v1/translate", server.TranslateRequest{Database: database, Question: s.req.question}, &tr)
	rec.end(sp, time.Now())
	if err != nil {
		s.status, s.errText, s.end = "transport", "translate: "+err.Error(), time.Now()
		return false
	}
	s.req.sql, s.req.canon = tr.SQL, tr.SQL
	return true
}

func (c *client) submit(ctx context.Context, s *sample, rec *recorder, root *span) bool {
	s.posted = time.Now()
	sp := rec.start(root, "submit", s.posted)
	var resp server.SubmitResponseV1
	status, _, err := c.roundTrip(ctx, http.MethodPost, "/v1/query", server.SubmitRequestV1{
		Database: database, SQL: s.req.sql, Level: s.req.level.String(),
	}, &resp)
	s.acked = time.Now()
	rec.end(sp, s.acked)
	switch {
	case status == http.StatusTooManyRequests:
		s.status, s.errText, s.end = "shed", err.Error(), s.acked
		return false
	case err != nil:
		s.status, s.errText, s.end = "transport", "submit: "+err.Error(), s.acked
		return false
	}
	s.id = resp.ID
	return true
}

// finish waits for the query handle and fetches the result.
func (c *client) finish(ctx context.Context, s *sample, rec *recorder) {
	s.wait = rec.start(s.root, "wait", s.acked)
	var q *pixelsdb.Query
	for q == nil {
		var gone bool
		if q, gone = c.lookup(s.id); gone {
			c.dropped(s, rec, "shed", "dropped while queued in admission")
			return
		}
		if q == nil {
			select {
			case <-ctx.Done():
				c.dropped(s, rec, "transport", "benchmark gave up waiting")
				return
			case <-time.After(pollEvery):
			}
		}
	}
	select {
	case <-q.Done():
	case <-ctx.Done():
		c.dropped(s, rec, "transport", "benchmark gave up waiting")
		return
	}
	c.completed(ctx, s, rec)
}

// pollEvery is how often a query still queued in admission is looked up.
const pollEvery = 200 * time.Microsecond

// lookup resolves a query id to the coordinator's handle. A query still
// queued in admission has none yet (nil, false); gone reports one that
// admission shed or canceled, which never gets one.
func (c *client) lookup(id string) (q *pixelsdb.Query, gone bool) {
	if q, ok := c.db.Coordinator().Get(id); ok {
		return q, false
	}
	if t, ok := c.db.Admission().Get(id); ok {
		st := t.State()
		return nil, st == admission.StateShed || st == admission.StateCanceled
	}
	return nil, false
}

// dropped ends a request whose query will never complete: admission shed
// it after queueing it, or the benchmark ran out of time.
func (c *client) dropped(s *sample, rec *recorder, status, why string) {
	s.status, s.errText, s.end = status, why, time.Now()
	rec.end(s.wait, s.end)
}

// completed records completion and fetches the result.
func (c *client) completed(ctx context.Context, s *sample, rec *recorder) {
	s.done = time.Now()
	rec.end(s.wait, s.done)
	c.fetch(ctx, s, rec, s.root)
}

func (c *client) fetch(ctx context.Context, s *sample, rec *recorder, root *span) {
	sp := rec.start(root, "result", time.Now())
	var res server.ResultPayloadV1
	_, n, err := c.roundTrip(ctx, http.MethodGet, "/v1/query/"+s.id+"/result", nil, &res)
	s.end = time.Now()
	rec.end(sp, s.end)
	s.respBytes = n
	if err != nil {
		s.status, s.errText = "transport", "result: "+err.Error()
		return
	}
	s.status, s.errText = res.Status, res.Error
	s.rows, s.chunksSkipped = res.Rows, res.ColumnChunksSkipped
}

// roundTrip sends one JSON request and decodes a 2xx answer into out. It
// returns the HTTP status and the response body size.
func (c *client) roundTrip(ctx context.Context, method, path string, body, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, len(raw), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, len(raw), json.Unmarshal(raw, out)
}
