// Package server implements the Query Server of Pixels-Turbo (Sec. II(2)):
// a REST API that receives queries from clients such as Pixels-Rover,
// forwards natural-language questions to the text-to-SQL service, submits
// queries to the coordinator at a chosen service level, and serves the
// status/result blocks and the Report tab's cost-visibility data.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore/cache"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/sql"
	"repro/internal/vclock"

	httppprof "net/http/pprof"
)

// Server wires the engine, coordinator and translator behind HTTP.
type Server struct {
	Engine     *engine.Engine
	Coord      *core.Coordinator
	Translator nl2sql.Translator
	Clock      vclock.Clock
	DefaultDB  string
	// Token, when non-empty, requires "Authorization: Bearer <Token>".
	Token string
	// Admission, when set, gates submissions through per-tier bounded
	// queues with deadline-aware dispatch and load shedding. Nil means
	// every submission goes straight to the coordinator (the pre-v1
	// behavior, and what the embedded API uses by default).
	Admission *admission.Controller
	// QCache, when set, routes submissions through the repeat-traffic
	// fast path: plans come from the normalized plan cache and the
	// payload carries a result-cache key the coordinator answers from
	// when possible. Nil plans every submission from scratch.
	QCache *qcache.Cache
	// Tracing, when true, opens an obs.Trace for every submission; the
	// span tree follows the query through admission, planning and
	// execution and is retained in TraceStore at finalize.
	Tracing bool
	// TraceStore backs GET /v1/query/{id}/trace. It must be the same
	// store the coordinator's Config.TraceStore writes to. Nil answers
	// the trace route with "tracing disabled".
	TraceStore *obs.TraceStore
	// Metrics, when true, mounts GET /metrics (Prometheus text format).
	// The endpoint is served without bearer auth so scrapers need no
	// credential plumbing.
	Metrics bool
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// CacheStats, when set, reports object-store read-cache counters for
	// /metrics (ok=false means the cache is disabled).
	CacheStats func() (cache.Stats, bool)
}

// Handler builds the route table: the versioned /v1 contract
// (docs/API.md) plus the legacy /api aliases, kept as thin deprecated
// shims that answer in the old shapes and emit a Deprecation header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.v1(s.handleHealth))
	mux.HandleFunc("GET /v1/schemas", s.v1(s.handleSchemas))
	mux.HandleFunc("POST /v1/translate", s.v1(s.handleTranslate))
	mux.HandleFunc("POST /v1/query", s.v1(s.handleSubmitV1))
	mux.HandleFunc("GET /v1/query/{id}", s.v1(s.handleQueryStatusV1))
	mux.HandleFunc("DELETE /v1/query/{id}", s.v1(s.handleQueryCancelV1))
	mux.HandleFunc("GET /v1/query/{id}/result", s.v1(s.handleQueryResultV1))
	mux.HandleFunc("GET /v1/report/summary", s.v1(s.handleReportSummary))
	mux.HandleFunc("GET /v1/report/timeline", s.v1(s.handleReportTimeline))
	mux.HandleFunc("GET /v1/report/queries", s.v1(s.handleReportQueriesV1))
	mux.HandleFunc("GET /v1/pricebook", s.v1(s.handlePriceBook))
	mux.HandleFunc("GET /v1/admission", s.v1(s.handleAdmissionSnapshot))
	mux.HandleFunc("GET /v1/cache", s.v1(s.handleCacheSnapshot))
	mux.HandleFunc("GET /v1/query/{id}/trace", s.v1(s.handleQueryTraceV1))
	if s.Metrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}

	mux.HandleFunc("GET /api/health", s.legacy(s.handleHealth))
	mux.HandleFunc("GET /api/schemas", s.legacy(s.handleSchemas))
	mux.HandleFunc("POST /api/translate", s.legacy(s.handleTranslate))
	mux.HandleFunc("POST /api/query", s.legacy(s.handleSubmit))
	mux.HandleFunc("GET /api/query/{id}", s.legacy(s.handleQueryStatus))
	mux.HandleFunc("DELETE /api/query/{id}", s.legacy(s.handleQueryCancel))
	mux.HandleFunc("GET /api/query/{id}/result", s.legacy(s.handleQueryResult))
	mux.HandleFunc("GET /api/report/summary", s.legacy(s.handleReportSummary))
	mux.HandleFunc("GET /api/report/timeline", s.legacy(s.handleReportTimeline))
	mux.HandleFunc("GET /api/report/queries", s.legacy(s.handleReportQueries))
	mux.HandleFunc("GET /api/pricebook", s.legacy(s.handlePriceBook))
	return mux
}

// apiError is the legacy JSON error body.
type apiError struct {
	Error string `json:"error"`
}

type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// httpError carries a status code, the v1 machine-readable error code,
// (for 429s) a retry hint, and (for SQL errors) the byte offset of the
// failing token in the submitted statement.
type httpError struct {
	code       int
	apiCode    string
	msg        string
	retryAfter time.Duration
	offset     *int
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errSQL wraps a front-end error as a 400, lifting the byte offset out of
// sql.Error into the structured envelope so clients can point at the
// failing token instead of parsing it from the message.
func errSQL(err error) error {
	he := &httpError{code: http.StatusBadRequest, apiCode: "invalid_sql", msg: fmt.Sprintf("SQL error: %v", err)}
	var se *sql.Error
	if errors.As(err, &se) {
		off := se.Pos
		he.offset = &off
	}
	return he
}

func errNotFound(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// legacy wraps a handler for the deprecated /api tree: old bare-string
// error bodies, plus RFC 8594-style deprecation headers pointing at the
// /v1 successor route.
func (s *Server) legacy(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+strings.Replace(r.URL.Path, "/api/", "/v1/", 1)+`>; rel="successor-version"`)
		if s.Token != "" {
			auth := r.Header.Get("Authorization")
			if auth != "Bearer "+s.Token {
				writeJSON(w, http.StatusUnauthorized, apiError{Error: "unauthorized"})
				return
			}
		}
		if err := h(w, r); err != nil {
			var he *httpError
			if errors.As(err, &he) {
				if he.retryAfter > 0 {
					w.Header().Set("Retry-After", retryAfterSeconds(he.retryAfter))
				}
				writeJSON(w, he.code, apiError{Error: he.msg})
				return
			}
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("invalid JSON body: %v", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return nil
}

// SchemaPayload is the schema-browser response.
type SchemaPayload struct {
	Databases []DatabaseInfo `json:"databases"`
}

// DatabaseInfo is one database in the schema browser.
type DatabaseInfo struct {
	Name   string      `json:"name"`
	Tables []TableInfo `json:"tables"`
}

// TableInfo is one table in the schema browser.
type TableInfo struct {
	Name    string       `json:"name"`
	Rows    int64        `json:"rows"`
	Bytes   int64        `json:"bytes"`
	Columns []ColumnInfo `json:"columns"`
}

// ColumnInfo is one column in the schema browser.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) handleSchemas(w http.ResponseWriter, _ *http.Request) error {
	cat := s.Engine.Catalog()
	var payload SchemaPayload
	for _, db := range cat.ListDatabases() {
		info := DatabaseInfo{Name: db}
		tables, err := cat.ListTables(db)
		if err != nil {
			return err
		}
		for _, tn := range tables {
			t, err := cat.GetTable(db, tn)
			if err != nil {
				return err
			}
			ti := TableInfo{Name: t.Name, Rows: t.RowCount(), Bytes: t.TotalBytes()}
			for _, c := range t.Columns {
				ti.Columns = append(ti.Columns, ColumnInfo{Name: c.Name, Type: c.Type.String()})
			}
			info.Tables = append(info.Tables, ti)
		}
		payload.Databases = append(payload.Databases, info)
	}
	writeJSON(w, http.StatusOK, payload)
	return nil
}

// TranslateRequest asks the text-to-SQL service for a translation.
type TranslateRequest struct {
	Database string `json:"database"`
	Question string `json:"question"`
}

// TranslateResponse is the translation.
type TranslateResponse struct {
	SQL        string  `json:"sql"`
	Confidence float64 `json:"confidence"`
	Translator string  `json:"translator"`
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) error {
	var req TranslateRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	if req.Database == "" {
		req.Database = s.DefaultDB
	}
	if req.Question == "" {
		return errBadRequest("question is required")
	}
	schema, err := nl2sql.SchemaFromCatalog(s.Engine.Catalog(), req.Database)
	if err != nil {
		if errors.Is(err, catalog.ErrNotFound) {
			return errNotFound("database %q not found", req.Database)
		}
		return err
	}
	tr, err := s.Translator.Translate(nl2sql.Request{Question: req.Question, Schema: schema})
	if err != nil {
		if errors.Is(err, nl2sql.ErrNoTranslation) {
			return errBadRequest("cannot translate: %v", err)
		}
		return err
	}
	writeJSON(w, http.StatusOK, TranslateResponse{SQL: tr.SQL, Confidence: tr.Confidence, Translator: tr.Translator})
	return nil
}

// SubmitRequest submits a query at a service level (the submission form of
// Fig. 4: service level plus an optional result-size limit).
type SubmitRequest struct {
	Database string `json:"database"`
	SQL      string `json:"sql"`
	Level    string `json:"level"`
	RowLimit int    `json:"rowLimit"`
}

// SubmitResponse identifies the scheduled query.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Level  string `json:"level"`
	// LevelDefaulted records that the request carried no level and the
	// server applied the default (relaxed) — explicit, so clients can
	// reconcile bills against what they actually asked for.
	LevelDefaulted bool `json:"levelDefaulted,omitempty"`
}

// parsedSubmit is a validated submission, ready to hand to admission or
// straight to the coordinator.
type parsedSubmit struct {
	sqlText   string
	level     billing.Level
	defaulted bool // level absent from the request; default applied
	payload   core.PlanPayload
	key       string
	deadline  time.Duration // client-requested completion deadline (0 = tier default)
	trace     *obs.Trace    // nil unless Server.Tracing is on
}

// submitOutcome is what a submission produced, in admission vocabulary.
// Exactly one of q / ticket-state fields is meaningful depending on path.
type submitOutcome struct {
	id         string
	level      billing.Level
	defaulted  bool
	state      admission.State
	queuePos   int
	queueDepth int
	deadline   time.Time
	retryAfter time.Duration
	shedReason string
	q          *core.Query // non-nil when the coordinator accepted it already
}

// parseSubmit validates the request fields shared by the legacy and v1
// submit bodies and plans the query.
func (s *Server) parseSubmit(database, sqlText, levelStr string, rowLimit int, deadlineMs int64) (*parsedSubmit, error) {
	if database == "" {
		database = s.DefaultDB
	}
	if sqlText == "" {
		return nil, errBadRequest("sql is required")
	}
	p := &parsedSubmit{sqlText: sqlText, level: billing.Relaxed, defaulted: true}
	if levelStr != "" {
		lev, err := billing.ParseLevel(levelStr)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		p.level, p.defaulted = lev, false
	}
	if deadlineMs < 0 {
		return nil, errBadRequest("deadline_ms must be >= 0")
	}
	p.deadline = time.Duration(deadlineMs) * time.Millisecond
	if s.QCache != nil {
		// Repeat-traffic fast path: the cache normalizes, parses on miss
		// only, and returns the plan plus the result-cache key the
		// coordinator answers from. The row limit is part of the cache
		// key, so the same SQL at different limits never shares a plan.
		node, resultKey, err := s.QCache.Plan(database, sqlText, int64(rowLimit))
		if err != nil {
			return nil, errSQL(err)
		}
		p.payload = core.PlanPayload{Node: node, ResultKey: resultKey}
		// The result key doubles as the coalesce key: normalization makes
		// two formattings of one query the same in-flight execution.
		p.key = resultKey
		return p, nil
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, errSQL(err)
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, errBadRequest("only SELECT can be scheduled; got %T", stmt)
	}
	if rowLimit > 0 {
		lim := int64(rowLimit)
		if sel.Limit == nil || *sel.Limit > lim {
			sel.Limit = &lim
		}
	}
	node, err := s.Engine.PlanQuery(database, sel)
	if err != nil {
		return nil, errBadRequest("plan error: %v", err)
	}
	p.payload = core.PlanPayload{Node: node}
	// Key on the canonical SQL so identical in-flight queries coalesce
	// when the coordinator has batch optimization enabled.
	p.key = database + "\x00" + sel.String()
	return p, nil
}

// submit runs a parsed submission through admission control when
// configured, else hands it straight to the coordinator.
func (s *Server) submit(p *parsedSubmit) submitOutcome {
	out := submitOutcome{level: p.level, defaulted: p.defaulted}
	if s.Admission == nil {
		q := s.Coord.SubmitKeyed(p.sqlText, p.level, p.payload, p.key)
		if p.trace != nil {
			p.trace.QueryID = q.ID
		}
		out.id, out.q = q.ID, q
		switch q.Status() {
		case core.StatusPending:
			out.state = admission.StateQueued
		case core.StatusFinished, core.StatusFailed:
			out.state = admission.StateDone
		default:
			out.state = admission.StateRunning
		}
		return out
	}
	id := s.Coord.ReserveID()
	if p.trace != nil {
		p.trace.QueryID = id
	}
	// The queue span covers submission-to-dispatch; a direct admit ends
	// it immediately (Start runs synchronously), and a shed submission
	// leaves it open on a trace that is discarded with the query.
	qspan := p.trace.Root().StartChild("admission-queue")
	t, dec := s.Admission.Submit(admission.Request{
		ID:       id,
		Level:    p.level,
		Label:    p.sqlText,
		Deadline: p.deadline,
		Start: func() (any, <-chan struct{}) {
			qspan.End()
			q := s.Coord.SubmitReservedKeyed(id, p.sqlText, p.level, p.payload, p.key)
			return q, q.Done()
		},
	})
	out.id = t.ID
	out.state = dec.State
	out.queuePos, out.queueDepth = dec.QueuePosition, dec.QueueDepth
	out.deadline = dec.Deadline
	out.retryAfter = dec.RetryAfter
	out.shedReason = dec.ShedReason
	if q, ok := t.Handle().(*core.Query); ok {
		out.q = q
	}
	return out
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) error {
	var req SubmitRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	p, _, err := s.tracedParse(req.Database, req.SQL, req.Level, req.RowLimit, 0)
	if err != nil {
		return err
	}
	out := s.submit(p)
	if out.state == admission.StateShed {
		return &httpError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("query shed (%s), retry later", out.shedReason),
			retryAfter: out.retryAfter,
		}
	}
	// The legacy shape reports the coordinator status vocabulary:
	// admission-queued queries look "pending", exactly like coordinator-
	// queued ones always did.
	status := string(core.StatusPending)
	if out.q != nil {
		status = string(out.q.Status())
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: out.id, Status: status, Level: out.level.String(), LevelDefaulted: out.defaulted,
	})
	return nil
}

// cancel cancels a query wherever it lives: still queued in admission
// (removed without consuming a slot or billing), or pending in the
// coordinator. Returns nil on success.
func (s *Server) cancel(id string) error {
	if s.Admission != nil && s.Admission.Cancel(id) {
		return nil
	}
	if _, ok := s.Coord.Get(id); !ok {
		if s.Admission != nil {
			if t, ok := s.Admission.Get(id); ok {
				return &httpError{code: http.StatusConflict,
					msg: fmt.Sprintf("query %s is %s", id, t.State())}
			}
		}
		return errNotFound("query %q not found", id)
	}
	if err := s.Coord.Cancel(id); err != nil {
		if errors.Is(err, core.ErrNotPending) {
			return &httpError{code: http.StatusConflict, msg: err.Error()}
		}
		return err
	}
	return nil
}

func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) error {
	if err := s.cancel(r.PathValue("id")); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceled"})
	return nil
}

// QueryInfo is a query's status block.
type QueryInfo struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Level      string `json:"level"`
	SQL        string `json:"sql"`
	UsedCF     bool   `json:"usedCF"`
	Coalesced  bool   `json:"coalesced,omitempty"`
	CacheHit   bool   `json:"cacheHit,omitempty"`
	Error      string `json:"error,omitempty"`
	SubmitTime string `json:"submitTime"`
	StartTime  string `json:"startTime,omitempty"`
	EndTime    string `json:"endTime,omitempty"`
	PendingMs  int64  `json:"pendingMs"`
	ExecMs     int64  `json:"execMs"`
}

func (s *Server) queryInfo(q *core.Query) QueryInfo {
	sub, start, end := q.Times()
	info := QueryInfo{
		ID:         q.ID,
		Status:     string(q.Status()),
		Level:      q.Level.String(),
		SQL:        q.SQL,
		UsedCF:     q.UsedCF(),
		Coalesced:  q.Coalesced(),
		CacheHit:   q.CacheHit(),
		SubmitTime: sub.UTC().Format(time.RFC3339Nano),
	}
	if err := q.Err(); err != nil {
		info.Error = err.Error()
	}
	now := s.Clock.Now()
	switch {
	case start.IsZero():
		info.PendingMs = now.Sub(sub).Milliseconds()
	default:
		info.StartTime = start.UTC().Format(time.RFC3339Nano)
		info.PendingMs = start.Sub(sub).Milliseconds()
		if end.IsZero() {
			info.ExecMs = now.Sub(start).Milliseconds()
		} else {
			info.EndTime = end.UTC().Format(time.RFC3339Nano)
			info.ExecMs = end.Sub(start).Milliseconds()
		}
	}
	return info
}

// ticketInfo renders an admission ticket that never reached the
// coordinator in the legacy status vocabulary: queued looks "pending";
// shed and canceled look "failed" with the reason in the error string.
func (s *Server) ticketInfo(t *admission.Ticket) QueryInfo {
	info := QueryInfo{
		ID:         t.ID,
		Level:      t.Level.String(),
		SQL:        t.Label,
		SubmitTime: t.Submitted().UTC().Format(time.RFC3339Nano),
	}
	switch t.State() {
	case admission.StateShed:
		info.Status = string(core.StatusFailed)
		info.Error = fmt.Sprintf("admission: shed (%s)", t.ShedReason())
	case admission.StateCanceled:
		info.Status = string(core.StatusFailed)
		info.Error = "admission: canceled while queued"
	default:
		info.Status = string(core.StatusPending)
		info.PendingMs = s.Clock.Now().Sub(t.Submitted()).Milliseconds()
	}
	return info
}

// lookupQuery resolves an id to either a live coordinator query or an
// admission ticket that never reached the coordinator (queued, shed or
// canceled-in-queue). Exactly one return is non-nil when found.
func (s *Server) lookupQuery(id string) (*core.Query, *admission.Ticket, bool) {
	if s.Admission != nil {
		if t, ok := s.Admission.Get(id); ok {
			if q, isQ := t.Handle().(*core.Query); isQ {
				return q, nil, true
			}
			return nil, t, true
		}
	}
	if q, ok := s.Coord.Get(id); ok {
		return q, nil, true
	}
	return nil, nil, false
}

func (s *Server) handleQueryStatus(w http.ResponseWriter, r *http.Request) error {
	q, t, ok := s.lookupQuery(r.PathValue("id"))
	if !ok {
		return errNotFound("query %q not found", r.PathValue("id"))
	}
	if q == nil {
		writeJSON(w, http.StatusOK, s.ticketInfo(t))
		return nil
	}
	writeJSON(w, http.StatusOK, s.queryInfo(q))
	return nil
}

// ResultPayload is a finished query's result block: rows, statistics and
// the bill (pending time, execution time and monetary cost — Sec. IV-A(3)).
type ResultPayload struct {
	QueryInfo
	Columns      []string   `json:"columns"`
	Types        []string   `json:"types"`
	Rows         [][]string `json:"rows"`
	BytesScanned int64      `json:"bytesScanned"`
	RowsReturned int64      `json:"rowsReturned"`
	// ColumnChunksSkipped and RowsFiltered expose the scan's late
	// materialization: chunks never fetched because their row group's
	// predicate columns selected no rows, and rows the pushed-down filter
	// dropped. Skipped chunks are the one legitimate way BytesScanned (and
	// so the bill) shrinks without changing the answer.
	ColumnChunksSkipped int64   `json:"columnChunksSkipped"`
	RowsFiltered        int64   `json:"rowsFiltered"`
	CacheHits           int64   `json:"cacheHits"`
	CacheMisses         int64   `json:"cacheMisses"`
	ListPrice           float64 `json:"listPrice"`
	ResourceCost        float64 `json:"resourceCost"`
	// Cached marks a result served from the result cache: no scan ran, so
	// BytesScanned (and the bill) are zero. Origin reports the stats of
	// the execution that originally filled the cache entry.
	Cached bool                `json:"cached,omitempty"`
	Origin *OriginStatsPayload `json:"origin,omitempty"`
}

// OriginStatsPayload is the original execution's work, attached to cached
// results so clients still see what the answer cost to produce once.
type OriginStatsPayload struct {
	BytesScanned        int64 `json:"bytesScanned"`
	RowsScanned         int64 `json:"rowsScanned"`
	RowsReturned        int64 `json:"rowsReturned"`
	ColumnChunksSkipped int64 `json:"columnChunksSkipped"`
	RowsFiltered        int64 `json:"rowsFiltered"`
}

func (s *Server) handleQueryResult(w http.ResponseWriter, r *http.Request) error {
	q, t, ok := s.lookupQuery(r.PathValue("id"))
	if !ok {
		return errNotFound("query %q not found", r.PathValue("id"))
	}
	if q == nil {
		switch t.State() {
		case admission.StateQueued, admission.StateRunning:
			return &httpError{code: http.StatusConflict, msg: "query is pending"}
		}
		// Shed or canceled in the queue: terminal, but no rows and no bill.
		writeJSON(w, http.StatusOK, ResultPayload{QueryInfo: s.ticketInfo(t)})
		return nil
	}
	switch q.Status() {
	case core.StatusPending, core.StatusRunning:
		return &httpError{code: http.StatusConflict, msg: "query is " + string(q.Status())}
	}
	writeJSON(w, http.StatusOK, s.resultPayload(q))
	return nil
}

// resultPayload builds the rows/stats/bill block for a terminal query.
func (s *Server) resultPayload(q *core.Query) ResultPayload {
	payload := ResultPayload{QueryInfo: s.queryInfo(q)}
	if res := q.Result(); res != nil {
		payload.Columns = res.Columns
		for _, t := range res.Types {
			payload.Types = append(payload.Types, t.String())
		}
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			payload.Rows = append(payload.Rows, cells)
		}
		payload.BytesScanned = res.Stats.BytesScanned
		payload.RowsReturned = res.Stats.RowsReturned
		payload.ColumnChunksSkipped = res.Stats.ColumnChunksSkipped
		payload.RowsFiltered = res.Stats.RowsFiltered
		payload.CacheHits = res.Stats.CacheHits
		payload.CacheMisses = res.Stats.CacheMisses
		payload.Cached = res.Cached
		if res.Origin != nil {
			payload.Origin = &OriginStatsPayload{
				BytesScanned:        res.Origin.BytesScanned,
				RowsScanned:         res.Origin.RowsScanned,
				RowsReturned:        res.Origin.RowsReturned,
				ColumnChunksSkipped: res.Origin.ColumnChunksSkipped,
				RowsFiltered:        res.Origin.RowsFiltered,
			}
		}
	}
	if b, ok := s.Coord.Ledger().Get(q.ID); ok {
		payload.ListPrice = b.ListPrice
		payload.ResourceCost = b.ResourceCost
		payload.BytesScanned = b.BytesScanned
	}
	return payload
}

// LevelSummaryPayload is one level's row in the report summary.
type LevelSummaryPayload struct {
	Level        string  `json:"level"`
	Queries      int     `json:"queries"`
	Finished     int     `json:"finished"`
	Failed       int     `json:"failed"`
	BytesScanned int64   `json:"bytesScanned"`
	ListPrice    float64 `json:"listPrice"`
	ResourceCost float64 `json:"resourceCost"`
	AvgPendingMs int64   `json:"avgPendingMs"`
	MaxPendingMs int64   `json:"maxPendingMs"`
	AvgExecMs    int64   `json:"avgExecMs"`
}

func (s *Server) handleReportSummary(w http.ResponseWriter, _ *http.Request) error {
	sum := s.Coord.Ledger().Summary()
	var out []LevelSummaryPayload
	for _, lev := range billing.Levels() {
		v, ok := sum[lev]
		if !ok {
			continue
		}
		out = append(out, LevelSummaryPayload{
			Level:        lev.String(),
			Queries:      v.Queries,
			Finished:     v.Finished,
			Failed:       v.Failed,
			BytesScanned: v.BytesScanned,
			ListPrice:    v.ListPrice,
			ResourceCost: v.ResourceCost,
			AvgPendingMs: v.AvgPending.Milliseconds(),
			MaxPendingMs: v.MaxPending.Milliseconds(),
			AvgExecMs:    v.AvgExec.Milliseconds(),
		})
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// TimelinePointPayload is one bucket of the query-count timeline chart.
type TimelinePointPayload struct {
	Start  string         `json:"start"`
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
}

func (s *Server) handleReportTimeline(w http.ResponseWriter, r *http.Request) error {
	minutes := 60
	if v := r.URL.Query().Get("minutes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errBadRequest("invalid minutes %q", v)
		}
		minutes = n
	}
	step := time.Minute
	if v := r.URL.Query().Get("stepSec"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errBadRequest("invalid stepSec %q", v)
		}
		step = time.Duration(n) * time.Second
	}
	to := s.Clock.Now()
	from := to.Add(-time.Duration(minutes) * time.Minute)
	var out []TimelinePointPayload
	for _, p := range s.Coord.Ledger().Timeline(from, to, step) {
		tp := TimelinePointPayload{
			Start:  p.Start.UTC().Format(time.RFC3339),
			Total:  p.Total,
			Counts: map[string]int{},
		}
		for lev, n := range p.Counts {
			tp.Counts[lev.String()] = n
		}
		out = append(out, tp)
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// BillPayload is one query row of the report's performance/cost charts.
type BillPayload struct {
	QueryID      string  `json:"queryId"`
	Level        string  `json:"level"`
	Status       string  `json:"status"`
	SubmitTime   string  `json:"submitTime"`
	PendingMs    int64   `json:"pendingMs"`
	ExecMs       int64   `json:"execMs"`
	BytesScanned int64   `json:"bytesScanned"`
	ListPrice    float64 `json:"listPrice"`
	ResourceCost float64 `json:"resourceCost"`
	UsedCF       bool    `json:"usedCF"`
	CacheHit     bool    `json:"cacheHit,omitempty"`
}

func (s *Server) handleReportQueries(w http.ResponseWriter, r *http.Request) error {
	to := s.Clock.Now()
	from := to.Add(-time.Hour)
	if v := r.URL.Query().Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return errBadRequest("invalid from %q", v)
		}
		from = t
	}
	if v := r.URL.Query().Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return errBadRequest("invalid to %q", v)
		}
		to = t
	}
	var out []BillPayload
	for _, b := range s.Coord.Ledger().Between(from, to) {
		out = append(out, BillPayload{
			QueryID:      b.QueryID,
			Level:        b.Level.String(),
			Status:       b.Status,
			SubmitTime:   b.SubmitTime.UTC().Format(time.RFC3339Nano),
			PendingMs:    b.PendingTime().Milliseconds(),
			ExecMs:       b.ExecTime().Milliseconds(),
			BytesScanned: b.BytesScanned,
			ListPrice:    b.ListPrice,
			ResourceCost: b.ResourceCost,
			UsedCF:       b.UsedCF,
			CacheHit:     b.CacheHit,
		})
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// PriceBookPayload lists the service levels with their $/TB prices —
// the "label with its performance and price" from the introduction.
type PriceBookPayload struct {
	Levels []LevelPrice `json:"levels"`
	// CFvsVMUnitPriceRatio is the heterogeneity the scheduler exploits.
	CFvsVMUnitPriceRatio float64 `json:"cfVsVmUnitPriceRatio"`
}

// LevelPrice is one level's listed price.
type LevelPrice struct {
	Level     string  `json:"level"`
	USDPerTB  float64 `json:"usdPerTB"`
	Guarantee string  `json:"guarantee"`
}

func (s *Server) handlePriceBook(w http.ResponseWriter, _ *http.Request) error {
	p := s.Coord.Config().Prices
	grace := s.Coord.Config().GracePeriod
	payload := PriceBookPayload{CFvsVMUnitPriceRatio: p.UnitPriceRatio()}
	payload.Levels = []LevelPrice{
		{Level: billing.Immediate.String(), USDPerTB: p.ScanPricePerTBAt(billing.Immediate),
			Guarantee: "starts immediately"},
		{Level: billing.Relaxed.String(), USDPerTB: p.ScanPricePerTBAt(billing.Relaxed),
			Guarantee: fmt.Sprintf("starts within %s", grace)},
		{Level: billing.BestEffort.String(), USDPerTB: p.ScanPricePerTBAt(billing.BestEffort),
			Guarantee: "no pending time guarantee"},
	}
	writeJSON(w, http.StatusOK, payload)
	return nil
}
