package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objstore"
)

// span is one timed interval the benchmark recorded around its own call
// into a layer. Spans of one request share the request's root.
type span struct {
	id, parent int
	name       string
	start, end time.Time
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	spans []*span
}

func (r *recorder) start(parent *span, name string, at time.Time) *span {
	if r == nil {
		return nil
	}
	s := &span{name: name, start: at}
	r.mu.Lock()
	s.id = len(r.spans) + 1
	if parent != nil {
		s.parent = parent.id
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// end closes s at the given time. Spans are ended by the goroutine that
// started them, before the recorder is read.
func (r *recorder) end(s *span, at time.Time) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	s.end = at
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(parent *span, name string, start, end time.Time) *span {
	s := r.start(parent, name, start)
	r.end(s, end)
	return s
}

// named returns the durations of every span with the given name.
func (r *recorder) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s.dur())
		}
	}
	return out
}

// covered returns, for each span id, how much of the span's interval its
// descendants in the given set cover, counting overlapping descendants once.
func covered(spans []*span, include func(*span) bool) map[int]time.Duration {
	byID := make(map[int]*span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	under := map[int][]*span{}
	for _, s := range spans {
		if !include(s) || s.end.IsZero() {
			continue
		}
		for p := byID[s.parent]; p != nil; p = byID[p.parent] {
			under[p.id] = append(under[p.id], s)
		}
	}
	out := make(map[int]time.Duration, len(under))
	for id, kids := range under {
		out[id] = union(byID[id], kids)
	}
	return out
}

// union is the length of the part of p's interval that kids cover.
func union(p *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTimes is each span's duration minus the time its direct children
// cover.
func selfTimes(spans []*span) map[int]time.Duration {
	byID := make(map[int]*span, len(spans))
	kids := map[int][]*span{}
	for _, s := range spans {
		byID[s.id] = s
		if s.parent != 0 && !s.end.IsZero() {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if !s.end.IsZero() {
			out[s.id] = s.dur() - union(s, kids[s.id])
		}
	}
	return out
}

// container spans group a request's steps; every other span is a layer.
func isLayer(s *span) bool { return s.name != "request" && s.name != "wait" }

// unexplainedFrac is the share of the requests' end-to-end time that no
// layer span covers.
func unexplainedFrac(spans []*span) float64 {
	cov := covered(spans, isLayer)
	var total, uncovered time.Duration
	for _, s := range spans {
		if s.name == "request" && !s.end.IsZero() {
			total += s.dur()
			uncovered += s.dur() - cov[s.id]
		}
	}
	return frac(float64(uncovered), float64(total))
}

// writeSpans dumps the spans as JSON lines, times in microseconds from the
// first span, with each span's self time.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"id": s.id, "parent": s.parent, "name": s.name,
			"start_us": us(s.start.Sub(t0)), "dur_us": us(s.dur()), "self_us": us(self[s.id]),
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timingStore wraps the DB's store for the replay engine and records an
// objstore span, under the replay call in progress, around every read. It
// forwards the read cache's optional interfaces so the engine takes the
// same cached paths through it as through the DB's own store.
type timingStore struct {
	objstore.Store
	rec    *recorder
	parent atomic.Pointer[span]
}

func (t *timingStore) timed(name string) func() {
	start := time.Now()
	return func() { t.rec.add(t.parent.Load(), name, start, time.Now()) }
}

func (t *timingStore) Get(key string) ([]byte, error) {
	defer t.timed("objstore.get")()
	return t.Store.Get(key)
}

func (t *timingStore) GetRange(key string, off, length int64) ([]byte, error) {
	defer t.timed("objstore.get")()
	return t.Store.GetRange(key, off, length)
}

func (t *timingStore) Put(key string, data []byte) error {
	defer t.timed("objstore.put")()
	return t.Store.Put(key, data)
}

func (t *timingStore) GetRangeCached(key string, off, length int64) ([]byte, bool, error) {
	defer t.timed("objstore.get")()
	if cr, ok := t.Store.(objstore.CachedRanger); ok {
		return cr.GetRangeCached(key, off, length)
	}
	data, err := t.Store.GetRange(key, off, length)
	return data, false, err
}

func (t *timingStore) ParsedFooter(key string, size int64) (any, bool) {
	if pf, ok := t.Store.(objstore.ParsedFooterCache); ok {
		return pf.ParsedFooter(key, size)
	}
	return nil, false
}

func (t *timingStore) StoreParsedFooter(key string, size int64, footer any) {
	if pf, ok := t.Store.(objstore.ParsedFooterCache); ok {
		pf.StoreParsedFooter(key, size, footer)
	}
}
