package billing

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		Immediate:  "immediate",
		Relaxed:    "relaxed",
		BestEffort: "best-of-effort",
	}
	for lev, want := range cases {
		if lev.String() != want {
			t.Errorf("%d.String() = %q", lev, lev.String())
		}
		parsed, err := ParseLevel(want)
		if err != nil || parsed != lev {
			t.Errorf("ParseLevel(%q) = %v, %v", want, parsed, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Errorf("ParseLevel accepted bogus")
	}
}

func TestListPricesMatchPaper(t *testing.T) {
	p := Default()
	tb := int64(1e12)
	if got := p.ListPrice(Immediate, tb); got != 5.0 {
		t.Errorf("immediate $/TB = %f, want 5", got)
	}
	if got := p.ListPrice(Relaxed, tb); got != 2.0 {
		t.Errorf("relaxed $/TB = %f, want 2 (40%%)", got)
	}
	if got := p.ListPrice(BestEffort, tb); got != 0.5 {
		t.Errorf("best-of-effort $/TB = %f, want 0.5 (10%%)", got)
	}
	if got := p.ScanPricePerTBAt(Relaxed); got != 2.0 {
		t.Errorf("ScanPricePerTBAt = %f", got)
	}
}

func TestUnitPriceRatioInBand(t *testing.T) {
	r := Default().UnitPriceRatio()
	if r < 9 || r > 24 {
		t.Fatalf("CF:VM unit price ratio %f outside the paper's 9-24x band", r)
	}
}

func TestListPriceMonotonicProperty(t *testing.T) {
	p := Default()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		for _, lev := range Levels() {
			if p.ListPrice(lev, x) > p.ListPrice(lev, y) {
				return false
			}
		}
		// Levels are ordered by price for the same bytes.
		return p.ListPrice(Immediate, y) >= p.ListPrice(Relaxed, y) &&
			p.ListPrice(Relaxed, y) >= p.ListPrice(BestEffort, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceCost(t *testing.T) {
	p := Default()
	u := ResourceUsage{VMSeconds: 3600, CFGBSeconds: 100, CFInvocations: 10, S3Gets: 2000, S3Puts: 1000}
	got := p.Cost(u)
	want := 3600*p.VMPerSecond + 100*p.CFPerGBSecond + 10*p.CFPerInvocation + 2*p.S3GetPer1000 + 1*p.S3PutPer1000
	if got != want {
		t.Fatalf("cost = %f, want %f", got, want)
	}
	var sum ResourceUsage
	sum.Add(u)
	sum.Add(u)
	if sum.VMSeconds != 7200 || sum.CFInvocations != 20 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

func mkBill(id string, lev Level, submitOffset, pend, exec time.Duration, bytes int64, status string) QueryBill {
	sub := t0.Add(submitOffset)
	return QueryBill{
		QueryID: id, Level: lev, Status: status,
		SubmitTime: sub, StartTime: sub.Add(pend), EndTime: sub.Add(pend + exec),
		BytesScanned: bytes,
	}
}

func TestLedgerSummary(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("q1", Immediate, 0, 0, 2*time.Second, 1000, "finished"))
	l.Append(mkBill("q2", Immediate, time.Minute, time.Second, 4*time.Second, 3000, "failed"))
	l.Append(mkBill("q3", Relaxed, 2*time.Minute, 30*time.Second, 2*time.Second, 500, "finished"))

	s := l.Summary()
	im := s[Immediate]
	if im.Queries != 2 || im.Finished != 1 || im.Failed != 1 || im.BytesScanned != 4000 {
		t.Fatalf("immediate summary = %+v", im)
	}
	if im.AvgPending != 500*time.Millisecond || im.MaxPending != time.Second {
		t.Fatalf("pending stats = %+v", im)
	}
	if im.AvgExec != 3*time.Second {
		t.Fatalf("exec stats = %+v", im)
	}
	rx := s[Relaxed]
	if rx.Queries != 1 || rx.MaxPending != 30*time.Second {
		t.Fatalf("relaxed summary = %+v", rx)
	}
}

func TestLedgerOrderedBySubmitTime(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("late", Immediate, 10*time.Minute, 0, time.Second, 1, "finished"))
	l.Append(mkBill("early", Immediate, 0, 0, time.Second, 1, "finished"))
	all := l.All()
	if all[0].QueryID != "early" || all[1].QueryID != "late" {
		t.Fatalf("order wrong: %v %v", all[0].QueryID, all[1].QueryID)
	}
}

func TestLedgerGet(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("q1", Immediate, 0, 0, time.Second, 1000, "finished"))
	l.Append(mkBill("q2", Relaxed, time.Minute, 0, time.Second, 2000, "finished"))
	l.Append(mkBill("q1", Immediate, 2*time.Minute, 0, time.Second, 3000, "failed"))
	b, ok := l.Get("q2")
	if !ok || b.QueryID != "q2" || b.BytesScanned != 2000 {
		t.Fatalf("Get(q2) = %+v, %v", b, ok)
	}
	// The first bill recorded for an ID wins.
	if b, ok := l.Get("q1"); !ok || b.BytesScanned != 1000 {
		t.Fatalf("Get(q1) = %+v, %v; want the first bill", b, ok)
	}
	if _, ok := l.Get("unknown"); ok {
		t.Fatalf("Get(unknown) found a bill")
	}
}

// Lookups run on result fetches while executing queries append bills.
// Run with -race.
func TestLedgerGetConcurrentWithAppend(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("q%d-%d", g, i)
				l.Append(mkBill(id, Immediate, 0, 0, time.Second, int64(i), "finished"))
				if b, ok := l.Get(id); !ok || b.BytesScanned != int64(i) {
					t.Errorf("Get(%s) = %+v, %v", id, b, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d, want 800", l.Len())
	}
}

func TestTimelineBuckets(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("a", Immediate, 10*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("b", Relaxed, 20*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("c", Relaxed, 70*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("d", BestEffort, 180*time.Second, 0, time.Second, 1, "finished"))

	points := l.Timeline(t0, t0.Add(3*time.Minute), time.Minute)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Total != 2 || points[0].Counts[Immediate] != 1 || points[0].Counts[Relaxed] != 1 {
		t.Fatalf("bucket0 = %+v", points[0])
	}
	if points[1].Total != 1 || points[1].Counts[Relaxed] != 1 {
		t.Fatalf("bucket1 = %+v", points[1])
	}
	if points[2].Total != 0 {
		t.Fatalf("bucket2 = %+v", points[2])
	}
	if points[3].Total != 1 || points[3].Counts[BestEffort] != 1 {
		t.Fatalf("bucket3 = %+v", points[3])
	}
}

func TestBetweenBrush(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("a", Immediate, 0, 0, time.Second, 1, "finished"))
	l.Append(mkBill("b", Immediate, time.Minute, 0, time.Second, 1, "finished"))
	l.Append(mkBill("c", Immediate, 2*time.Minute, 0, time.Second, 1, "finished"))
	got := l.Between(t0.Add(30*time.Second), t0.Add(90*time.Second))
	if len(got) != 1 || got[0].QueryID != "b" {
		t.Fatalf("brush = %+v", got)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	l := NewLedger()
	if pts := l.Timeline(t0, t0, time.Minute); pts != nil {
		t.Fatalf("empty window should be nil")
	}
	l.Append(mkBill("x", Immediate, -time.Hour, 0, time.Second, 1, "finished"))
	pts := l.Timeline(t0, t0.Add(time.Minute), 0) // default step
	if len(pts) != 2 || pts[0].Total != 0 {
		t.Fatalf("out-of-window bill counted: %+v", pts)
	}
}
