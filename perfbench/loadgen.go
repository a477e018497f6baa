package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
)

// runResult is one measured run of a workload.
type runResult struct {
	samples []*sample
	inserts []*insertRec
	start   time.Time
	lagsMs  []float64 // open loop: send time minus due time
	before  counters
	after   counters
	vmBusy  float64      // time-averaged share of VM slots busy
	heap    []heapSample // live heap, as marked by the latest GC
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

// insertRec is one INSERT of the dashboard's write schedule, with the
// table's file layout after it was acknowledged.
type insertRec struct {
	table        string
	started, ack time.Time
	files        []catalog.FileMeta
	err          error
}

// drive runs one workload for the given length on d, recording spans into
// rec when it is non-nil.
func drive(ctx context.Context, d *deployment, sp spec, seed int64, length time.Duration, rec *recorder) *runResult {
	res := &runResult{before: readCounters(d)}
	stopSampler := startSampler(d, res)
	res.start = time.Now()
	deadline := res.start.Add(length)
	var wg sync.WaitGroup
	if sp.insertEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.inserts = writeSchedule(ctx, d, seed, res.start, length, sp.insertEvery, rec)
		}()
	}
	gen := sp.newGen(seed, sp.sf)
	if sp.openRate > 0 {
		res.samples, res.lagsMs = openLoop(ctx, d, gen, sp.openRate, res.start, length, seed, rec)
	} else {
		res.samples = closedLoop(ctx, d, &lockedGen{g: gen}, deadline, sp.pace, rec)
	}
	wg.Wait()
	stopSampler()
	res.after = readCounters(d)
	return res
}

// closedLoop runs nproc clients, each sending its next request only after
// the previous one's result arrived, until the deadline. With pace > 0 a
// client also waits for its next slot of a pace/nproc per second schedule;
// a late client sends at once and drops the slots it missed.
func closedLoop(ctx context.Context, d *deployment, gen generator, deadline time.Time, pace float64, rec *recorder) []*sample {
	var mu sync.Mutex
	var out []*sample
	var wg sync.WaitGroup
	var every time.Duration
	if pace > 0 {
		every = time.Duration(float64(nproc()) / pace * float64(time.Second))
	}
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now().Add(every * time.Duration(i) / time.Duration(nproc()))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if now := time.Now(); due.Before(now) {
					due = now
				}
				due = due.Add(every)
				s := d.cl.do(ctx, gen.next(), rec)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop submits a fixed number of arrivals — rate × length rounded up
// to whole level blocks, placed as uniform order statistics over the run,
// which is a Poisson process conditioned on its count — from one
// goroutine, each at its due time. nproc-1 goroutines (at least one) wait
// for completions and fetch results.
func openLoop(ctx context.Context, d *deployment, gen generator, rate float64, start time.Time, length time.Duration, seed int64, rec *recorder) ([]*sample, []float64) {
	block := len(tierBlock)
	n := (int(math.Ceil(rate*length.Seconds())) + block - 1) / block * block
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(length)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = gen.next()
	}

	in := make(chan *sample, n) // sized to the number of sends: the submitter never blocks
	var mu sync.Mutex
	var out []*sample
	emit := func(s *sample) {
		mu.Lock()
		out = append(out, s)
		mu.Unlock()
	}
	fetchers := nproc() - 1
	if fetchers < 1 {
		fetchers = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.cl.fetchLoop(ctx, in, rec, emit)
		}()
	}
	lags := make([]float64, 0, n)
	for i, r := range reqs {
		due := start.Add(offsets[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s := &sample{req: r, due: due, sent: time.Now()}
		lags = append(lags, ms(s.sent.Sub(due)))
		if d.cl.send(ctx, s, rec) {
			in <- s
		} else {
			rec.end(s.root, s.end)
			emit(s)
		}
	}
	close(in)
	wg.Wait()
	return out, lags
}

// fetchLoop multiplexes completions of the submitted queries it takes from
// in: it waits on every pending query handle at once and fetches each
// result as soon as its query completes, so a slow query never delays the
// timing of a fast one.
func (c *client) fetchLoop(ctx context.Context, in <-chan *sample, rec *recorder, emit func(*sample)) {
	type pending struct {
		s *sample
		q interface{ Done() <-chan struct{} }
	}
	var pend []*pending
	var cases []reflect.SelectCase
	var which []int
	for in != nil || len(pend) > 0 {
		cases, which = cases[:0], which[:0]
		if in != nil {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(in)})
			which = append(which, -1)
		}
		poll := false
		kept := pend[:0]
		for _, p := range pend {
			if p.q == nil {
				q, gone := c.lookup(p.s.id)
				if gone {
					c.dropped(p.s, rec, "shed", "dropped while queued in admission")
					rec.end(p.s.root, p.s.end)
					emit(p.s)
					continue
				}
				if q == nil {
					poll = true
				} else {
					p.q = q
				}
			}
			kept = append(kept, p)
		}
		pend = kept
		for i, p := range pend {
			if p.q != nil {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.q.Done())})
				which = append(which, i)
			}
		}
		if poll {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(time.After(pollEvery))})
			which = append(which, -2)
		}
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())})
		which = append(which, -3)
		if len(cases) == 1 && in == nil && len(pend) == 0 {
			return
		}
		chosen, v, ok := reflect.Select(cases)
		switch w := which[chosen]; w {
		case -1:
			if !ok {
				in = nil
				continue
			}
			s := v.Interface().(*sample)
			s.wait = rec.start(s.root, "wait", s.acked)
			pend = append(pend, &pending{s: s})
		case -2:
		case -3:
			for _, p := range pend {
				c.dropped(p.s, rec, "transport", "benchmark gave up waiting")
				rec.end(p.s.root, p.s.end)
				emit(p.s)
			}
			pend = nil
			if in != nil {
				for s := range in {
					c.dropped(s, rec, "transport", "benchmark gave up waiting")
					emit(s)
				}
				in = nil
			}
		default:
			p := pend[w]
			pend = append(pend[:w], pend[w+1:]...)
			c.completed(ctx, p.s, rec)
			rec.end(p.s.root, p.s.end)
			emit(p.s)
		}
	}
}

// writeSchedule issues the dashboard's INSERTs through DB.Execute at fixed
// offsets from the run start — length/every of them, whatever the read
// load — and records each one's timing and the table layout it produced.
func writeSchedule(ctx context.Context, d *deployment, seed int64, start time.Time, length, every time.Duration, rec *recorder) []*insertRec {
	gen := &insertGen{rng: rand.New(rand.NewSource(seed ^ 0x1a5e))}
	var out []*insertRec
	for k := 1; time.Duration(k)*every <= length; k++ {
		if wait := time.Until(start.Add(time.Duration(k) * every)); wait > 0 {
			time.Sleep(wait)
		}
		table, stmt := gen.next()
		w := &insertRec{table: table, started: time.Now()}
		sp := rec.start(nil, "insert", w.started)
		_, w.err = d.db.Execute(ctx, database, stmt)
		w.ack = time.Now()
		rec.end(sp, w.ack)
		if w.err == nil {
			t, err := d.db.Engine().Catalog().GetTable(database, table)
			if err != nil {
				w.err = err
			} else {
				w.files = t.Files
			}
		}
		out = append(out, w)
	}
	return out
}

// startSampler samples VM slot use and the live heap every few milliseconds
// until the returned stop function is called; stop waits for it to exit.
func startSampler(d *deployment, res *runResult) (stop func()) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var busy, total float64
		for {
			m := d.db.Cluster().Snapshot()
			if m.TotalSlots > 0 {
				busy += float64(m.BusySlots) / float64(m.TotalSlots)
				total++
			}
			metrics.Read(heap)
			res.heap = append(res.heap, heapSample{time.Now(), heap[0].Value.Uint64()})
			select {
			case <-quit:
				if total > 0 {
					res.vmBusy = busy / total
				}
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
