package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
)

// countingStore wraps a Store and counts the requests that reach it; an
// optional gate blocks ranged reads so tests can force request overlap.
type countingStore struct {
	objstore.Store
	gets, heads atomic.Int64
	bytes       atomic.Int64  // bytes returned by ranged reads
	gate        chan struct{} // when non-nil, GetRange blocks until closed
	entered     chan struct{} // when non-nil, signaled on GetRange entry
	// fault, when non-nil, serves ranged reads instead of the embedded
	// store, so a test can inject errors after a clean warm-up.
	fault objstore.Store
}

func (c *countingStore) GetRange(key string, off, length int64) ([]byte, error) {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.gate != nil {
		<-c.gate
	}
	c.gets.Add(1)
	src := c.Store
	if c.fault != nil {
		src = c.fault
	}
	data, err := src.GetRange(key, off, length)
	c.bytes.Add(int64(len(data)))
	return data, err
}

func (c *countingStore) Head(key string) (objstore.ObjectInfo, error) {
	c.heads.Add(1)
	return c.Store.Head(key)
}

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/7)
	}
	return b
}

// TestStoreContract checks that a CachingStore honors the same Store
// semantics as the raw backends (the objstore package's suite, adapted):
// round trips, overwrite visibility through invalidation, range
// semantics, missing-key errors and caller-mutation safety.
func TestStoreContract(t *testing.T) {
	s := New(objstore.NewMemory(), Config{})

	if _, err := s.Get("missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("Head(missing) err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("missing"); err != nil {
		t.Errorf("Delete(missing) err = %v, want nil (S3 semantics)", err)
	}

	data := []byte("hello, columnar world")
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("db/tbl/file-0.pxl")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Overwrite must be visible through the cache (Put invalidates).
	if err := s.Put("db/tbl/file-0.pxl", []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, _ = s.Get("db/tbl/file-0.pxl")
	if string(got) != "v2" {
		t.Fatalf("overwrite not visible through cache: %q", got)
	}
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatal(err)
	}

	rng, err := s.GetRange("db/tbl/file-0.pxl", 7, 8)
	if err != nil || string(rng) != "columnar" {
		t.Fatalf("GetRange = %q, %v", rng, err)
	}
	rng, err = s.GetRange("db/tbl/file-0.pxl", 7, -1)
	if err != nil || string(rng) != "columnar world" {
		t.Fatalf("GetRange to end = %q, %v", rng, err)
	}
	if _, err := s.GetRange("db/tbl/file-0.pxl", 7, 1000); err == nil {
		t.Errorf("GetRange past end did not error")
	}
	if _, err := s.GetRange("db/tbl/file-0.pxl", -1, 2); err == nil {
		t.Errorf("GetRange negative offset did not error")
	}
	if rng, err = s.GetRange("db/tbl/file-0.pxl", int64(len(data)), 0); err != nil || len(rng) != 0 {
		t.Errorf("zero-length range at EOF = %q, %v", rng, err)
	}

	info, err := s.Head("db/tbl/file-0.pxl")
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Head = %+v, %v", info, err)
	}

	if err := s.Put("db/tbl/file-1.pxl", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("db/other/file-9.pxl", []byte("y")); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List("db/tbl/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("List = %v, %v", infos, err)
	}

	// Delete invalidates: the cached entry must not resurrect the object.
	if _, err := s.Get("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("db/tbl/file-1.pxl"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("deleted key still served: %v", err)
	}

	if err := s.Put("", []byte("x")); err == nil {
		t.Errorf("Put with empty key accepted")
	}

	// Mutating a returned buffer must not corrupt cached blocks.
	got, _ = s.Get("db/tbl/file-0.pxl")
	for i := range got {
		got[i] = 0
	}
	got2, _ := s.Get("db/tbl/file-0.pxl")
	if !bytes.Equal(got2, data) {
		t.Errorf("cache corrupted by caller mutation")
	}
}

// TestFooterCacheReopen models pixfile.Open's access pattern (tail read,
// then footer read): the second open of the same key must cost zero
// store requests.
func TestFooterCacheReopen(t *testing.T) {
	mem := objstore.NewMemory()
	const size = 200 << 10
	if err := mem.Put("k", blob(size)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{FooterSpan: 64 << 10})

	open := func() {
		t.Helper()
		tail, err := c.GetRange("k", size-8, 8)
		if err != nil || len(tail) != 8 {
			t.Fatalf("tail read: %v", err)
		}
		footer, err := c.GetRange("k", size-2048, 2040)
		if err != nil || len(footer) != 2040 {
			t.Fatalf("footer read: %v", err)
		}
	}
	open()
	heads, gets := cs.heads.Load(), cs.gets.Load()
	if heads != 1 || gets != 1 {
		t.Fatalf("cold open cost %d heads + %d gets, want 1 + 1 (footer span)", heads, gets)
	}
	open()
	if cs.heads.Load() != heads || cs.gets.Load() != gets {
		t.Fatalf("warm open touched the store: %d heads, %d gets", cs.heads.Load(), cs.gets.Load())
	}
	if _, hit, err := c.GetRangeCached("k", size-8, 8); err != nil || !hit {
		t.Fatalf("warm tail read not reported as hit (err %v)", err)
	}
	if st := c.Stats(); st.FooterHits == 0 {
		t.Fatalf("no footer hits recorded: %+v", st)
	}
}

// TestSingleFlight forces N concurrent reads of the same uncached block
// to overlap and checks exactly one reaches the store.
func TestSingleFlight(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(1<<20)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{ReadAhead: -1, FooterSpan: 16})
	// Warm the metadata so the gated phase is block fetches only.
	if _, err := c.Head("k"); err != nil {
		t.Fatal(err)
	}

	cs.gate = make(chan struct{})
	cs.entered = make(chan struct{}, 64)
	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	datas := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			datas[i], errs[i] = c.GetRange("k", 100, 5000)
		}(i)
	}
	<-cs.entered // one fetch is inside the store, blocked on the gate
	// Give the remaining readers time to join the in-flight call.
	time.Sleep(20 * time.Millisecond)
	close(cs.gate)
	wg.Wait()

	want := blob(1 << 20)[100:5100]
	for i := range errs {
		if errs[i] != nil || !bytes.Equal(datas[i], want) {
			t.Fatalf("reader %d: err %v, data ok %v", i, errs[i], bytes.Equal(datas[i], want))
		}
	}
	if got := cs.gets.Load(); got != 1 {
		t.Fatalf("%d store fetches for one block under %d concurrent readers, want 1", got, readers)
	}
	if st := c.Stats(); st.SingleFlightShared == 0 {
		t.Fatalf("no single-flight sharing recorded: %+v", st)
	}
}

// TestInvalidateDuringFetch overwrites a key while a read of it is in
// flight: the racing read may serve either version, but nothing from the
// poisoned fetch may be cached — the next read must refetch and see the
// new bytes.
func TestInvalidateDuringFetch(t *testing.T) {
	mem := objstore.NewMemory()
	old := bytes.Repeat([]byte{0xAA}, 8<<10)
	fresh := bytes.Repeat([]byte{0xBB}, 8<<10)
	if err := mem.Put("k", old); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{ReadAhead: -1, FooterSpan: 16})
	if _, err := c.Head("k"); err != nil { // warm meta: gated phase is the block fetch
		t.Fatal(err)
	}

	cs.gate = make(chan struct{})
	cs.entered = make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		_, err := c.GetRange("k", 0, 1024)
		done <- err
	}()
	<-cs.entered                              // block fetch is in flight, parked on the gate
	if err := c.Put("k", fresh); err != nil { // Put is not gated; poisons the flight
		t.Fatal(err)
	}
	close(cs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The poisoned fetch must not have populated the cache: this read
	// refetches and sees the new bytes.
	gets := cs.gets.Load()
	got, err := c.GetRange("k", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh[:1024]) {
		t.Fatalf("stale bytes served after overwrite")
	}
	if cs.gets.Load() == gets {
		t.Fatalf("post-overwrite read served from cache — poisoned fetch was stored")
	}
}

// TestLRUEviction bounds the block cache and checks cold entries fall out.
func TestLRUEviction(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(8<<10)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	// ScanResistMin off: this test pins the plain LRU mechanics (the file
	// is far larger than the cache, so the default policy would classify
	// the sequential reads as a streaming scan and bypass admission —
	// TestScanResistantAdmission covers that behavior).
	c := New(cs, Config{
		Capacity: 2048, BlockSize: 1024, Shards: 1, ReadAhead: -1, FooterSpan: 16,
		ScanResistMin: -1,
	})
	read := func(off int64) {
		t.Helper()
		if _, err := c.GetRange("k", off, 1024); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(1024)
	read(2048) // capacity 2 blocks → evicts block 0
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions at capacity: %+v", st)
	}
	gets := cs.gets.Load()
	read(0) // must refetch
	if cs.gets.Load() != gets+1 {
		t.Fatalf("evicted block served from cache")
	}
	// Still-resident block stays a hit.
	gets = cs.gets.Load()
	if _, hit, err := c.GetRangeCached("k", 0, 1024); err != nil || !hit {
		t.Fatalf("just-refetched block not a hit (err %v)", err)
	}
	if cs.gets.Load() != gets {
		t.Fatalf("hit touched the store")
	}
}

// TestReadAhead drives a sequential scan and checks later blocks are
// prefetched ahead of demand, then counted used — and counted wasted when
// flushed before use.
func TestReadAhead(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(64<<10)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{
		BlockSize: 1024, Capacity: 1 << 20, Shards: 1, ReadAhead: 2, FooterSpan: 16,
	})
	if _, err := c.GetRange("k", 0, 1024); err != nil { // streak 1
		t.Fatal(err)
	}
	if _, err := c.GetRange("k", 1024, 1024); err != nil { // streak 2 → prefetch 2,3
		t.Fatal(err)
	}
	c.WaitReadAhead()
	st := c.Stats()
	if st.PrefetchIssued < 2 {
		t.Fatalf("expected ≥2 prefetched blocks, got %+v", st)
	}
	gets := cs.gets.Load()
	data, hit, err := c.GetRangeCached("k", 2048, 1024)
	if err != nil || !hit || cs.gets.Load() != gets {
		t.Fatalf("prefetched block not served from cache (hit=%v, err=%v)", hit, err)
	}
	if !bytes.Equal(data, blob(64 << 10)[2048:3072]) {
		t.Fatalf("prefetched block content wrong")
	}
	c.WaitReadAhead()
	if st := c.Stats(); st.PrefetchUsed == 0 {
		t.Fatalf("used prefetch not counted: %+v", st)
	}
	// Whatever was prefetched and never read is wasted once flushed.
	used := c.Stats().PrefetchUsed
	c.Flush()
	st = c.Stats()
	if st.PrefetchWasted != st.PrefetchIssued-used {
		t.Fatalf("wasted %d, want issued %d - used %d", st.PrefetchWasted, st.PrefetchIssued, used)
	}
	// Flush really dropped everything.
	gets = cs.gets.Load()
	if _, hit, err := c.GetRangeCached("k", 0, 1024); err != nil || hit || cs.gets.Load() == gets {
		t.Fatalf("flushed cache still serving hits")
	}
}

// TestNonSequentialNoPrefetch checks random access never triggers
// read-ahead.
func TestNonSequentialNoPrefetch(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(64<<10)); err != nil {
		t.Fatal(err)
	}
	c := New(mem, Config{BlockSize: 1024, Shards: 1, ReadAhead: 2, FooterSpan: 16})
	for _, off := range []int64{32 << 10, 0, 16 << 10, 8 << 10, 48 << 10} {
		if _, err := c.GetRange("k", off, 512); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitReadAhead()
	if st := c.Stats(); st.PrefetchIssued != 0 {
		t.Fatalf("random access prefetched %d blocks", st.PrefetchIssued)
	}
}

// TestConcurrentScans hammers the cache from parallel readers and writers
// (race-detector coverage) while verifying every byte served.
func TestConcurrentScans(t *testing.T) {
	mem := objstore.NewMemory()
	const n = 64 << 10
	keys := []string{"t/a.pxl", "t/b.pxl", "t/c.pxl", "t/d.pxl"}
	for _, k := range keys {
		if err := mem.Put(k, blob(n)); err != nil {
			t.Fatal(err)
		}
	}
	want := blob(n)
	// Small capacity forces eviction churn under load.
	c := New(mem, Config{Capacity: 64 << 10, BlockSize: 4096, Shards: 2, ReadAhead: 2, FooterSpan: 64})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			key := keys[g%len(keys)]
			if g%2 == 0 {
				// Sequential scan in chunk-sized steps.
				for off := int64(0); off+4096 <= n; off += 4096 {
					got, err := c.GetRange(key, off, 4096)
					if err != nil || !bytes.Equal(got, want[off:off+4096]) {
						t.Errorf("seq read %s@%d: %v", key, off, err)
						return
					}
				}
			} else {
				for i := 0; i < 100; i++ {
					off := rng.Int63n(n - 512)
					got, err := c.GetRange(key, off, 512)
					if err != nil || !bytes.Equal(got, want[off:off+512]) {
						t.Errorf("rand read %s@%d: %v", key, off, err)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent writers on disjoint keys exercise invalidation paths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("w/%d", i%5)
			if err := c.Put(k, blob(100+i)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if _, err := c.Get(k); err != nil {
				t.Errorf("get after put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	c.WaitReadAhead()
}

// TestCountersAttachToMetered wires the cache's counters into a Metered
// store below it, the production layering of pixelsdb.Open.
func TestCountersAttachToMetered(t *testing.T) {
	met := objstore.NewMetered(objstore.NewMemory())
	c := New(met, Config{ReadAhead: -1, FooterSpan: 16})
	met.AttachCache(c)
	if err := c.Put("k", blob(8<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRange("k", 0, 4096); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.GetRange("k", 0, 4096); err != nil { // hit
		t.Fatal(err)
	}
	u := met.Usage()
	if u.CacheHits != 1 || u.CacheMisses != 1 {
		t.Fatalf("metered usage cache counters = %d/%d, want 1/1", u.CacheHits, u.CacheMisses)
	}
	met.Reset()
	if u := met.Usage(); u.CacheHits != 0 || u.CacheMisses != 0 {
		t.Fatalf("Reset did not re-baseline cache counters: %+v", u)
	}
	if _, err := c.GetRange("k", 0, 4096); err != nil { // hit after reset
		t.Fatal(err)
	}
	if u := met.Usage(); u.CacheHits != 1 {
		t.Fatalf("post-reset delta = %+v, want 1 hit", u)
	}
}

// TestParsedFooterCacheContract covers the decoded-footer cache: store and
// hit, size-mismatch miss, Put/Delete invalidation, and the requirement
// that a never-seen key neither stores nor panics.
func TestParsedFooterCacheContract(t *testing.T) {
	inner := objstore.NewMemory()
	c := New(inner, Config{})
	type footer struct{ id int }

	// Storing for a key the cache has never resolved is a no-op.
	c.StoreParsedFooter("ghost", 10, &footer{id: 0})
	if _, ok := c.ParsedFooter("ghost", 10); ok {
		t.Fatal("parsed footer stored for an unresolved key")
	}

	data := bytes.Repeat([]byte{7}, 1024)
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRange("k", 0, 16); err != nil { // resolves fileMeta
		t.Fatal(err)
	}
	f1 := &footer{id: 1}
	c.StoreParsedFooter("k", 1024, f1)
	got, ok := c.ParsedFooter("k", 1024)
	if !ok || got.(*footer) != f1 {
		t.Fatalf("parsed footer roundtrip failed: %v %v", got, ok)
	}
	if c.Stats().ParsedFooterHits != 1 {
		t.Fatalf("ParsedFooterHits = %d, want 1", c.Stats().ParsedFooterHits)
	}

	// A size mismatch must miss (entry was parsed from other bytes).
	if _, ok := c.ParsedFooter("k", 999); ok {
		t.Fatal("parsed footer served despite size mismatch")
	}

	// Storing under a stale size is refused.
	c.StoreParsedFooter("k", 999, &footer{id: 2})
	if got, ok := c.ParsedFooter("k", 1024); !ok || got.(*footer) != f1 {
		t.Fatal("stale-size store clobbered the valid entry")
	}

	// A rewrite through the store drops the entry.
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ParsedFooter("k", 1024); ok {
		t.Fatal("Put did not invalidate the parsed footer")
	}

	// Re-resolve, store, then Delete must invalidate too.
	if _, err := c.GetRange("k", 0, 16); err != nil {
		t.Fatal(err)
	}
	c.StoreParsedFooter("k", 1024, &footer{id: 3})
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ParsedFooter("k", 1024); ok {
		t.Fatal("Delete did not invalidate the parsed footer")
	}
}

// streamFile reads a file start-to-end in blockSize steps through the
// block path (stopping short of the pinned footer span), the access
// pattern of a one-pass scan.
func streamFile(t *testing.T, c *CachingStore, key string, size, step, footerSpan int64) {
	t.Helper()
	for off := int64(0); off+step <= size-footerSpan; off += step {
		if _, err := c.GetRange(key, off, step); err != nil {
			t.Fatalf("stream %s@%d: %v", key, off, err)
		}
	}
}

// TestScanResistantAdmission: a sequential one-pass scan of a file larger
// than ScanResistMin must not evict a hot small table's blocks — streaming
// blocks are admitted at the LRU's cold end and bypassed once the cache is
// full — while disabling scan resistance restores the old flush-everything
// behavior.
func TestScanResistantAdmission(t *testing.T) {
	const (
		blockSz  = 1024
		capacity = 8 * blockSz
		footerSp = 16
		hotSize  = 2 * blockSz
		bigSize  = 64 * blockSz
	)
	setup := func(resist int64) (*CachingStore, func()) {
		mem := objstore.NewMemory()
		if err := mem.Put("hot", blob(hotSize)); err != nil {
			t.Fatal(err)
		}
		if err := mem.Put("big", blob(bigSize)); err != nil {
			t.Fatal(err)
		}
		c := New(mem, Config{
			Capacity: capacity, BlockSize: blockSz, Shards: 1,
			ReadAhead: -1, FooterSpan: footerSp, ScanResistMin: resist,
		})
		readHot := func() {
			for off := int64(0); off < hotSize-footerSp; off += blockSz {
				if _, err := c.GetRange("hot", off, blockSz/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c, readHot
	}

	// Scan resistance on (default threshold: capacity/2 = 4 blocks, well
	// under the big file).
	c, readHot := setup(0)
	readHot() // populate the hot blocks
	before := c.Stats()
	readHot() // all hits now
	if d := c.Stats(); d.Hits-before.Hits != 2 || d.Misses != before.Misses {
		t.Fatalf("hot file not resident before scan: %+v", d)
	}
	streamFile(t, c, "big", bigSize, blockSz, footerSp)
	st := c.Stats()
	if st.ColdAdmits == 0 {
		t.Errorf("streaming scan produced no cold admissions: %+v", st)
	}
	if st.ScanBypasses == 0 {
		t.Errorf("full cache produced no scan bypasses: %+v", st)
	}
	mid := c.Stats()
	readHot() // the point: still resident after the big scan
	if d := c.Stats(); d.Misses != mid.Misses {
		t.Fatalf("one-pass scan evicted the hot file: %+v vs %+v", d, mid)
	}

	// Scan resistance off: the same scan flushes the hot blocks.
	c, readHot = setup(-1)
	readHot()
	streamFile(t, c, "big", bigSize, blockSz, footerSp)
	if st := c.Stats(); st.ColdAdmits != 0 || st.ScanBypasses != 0 {
		t.Fatalf("cold admissions with scan resistance disabled: %+v", st)
	}
	mid = c.Stats()
	readHot()
	if d := c.Stats(); d.Misses == mid.Misses {
		t.Fatal("expected the unprotected scan to evict the hot file")
	}
}

// TestReadAheadWasteClamp: once enough prefetched blocks die unread, the
// effective read-ahead window drops to one block.
func TestReadAheadWasteClamp(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(1<<20)); err != nil {
		t.Fatal(err)
	}
	c := New(mem, Config{BlockSize: 1024, Capacity: 1 << 20, Shards: 1, ReadAhead: 4, FooterSpan: 16})
	if got := c.effectiveReadAhead(); got != 4 {
		t.Fatalf("effectiveReadAhead = %d before any waste, want 4", got)
	}
	c.winIssued.Store(100)
	c.winWasted.Store(10) // 10% wasted: keep the window
	if got := c.effectiveReadAhead(); got != 4 {
		t.Fatalf("effectiveReadAhead = %d at 10%% waste, want 4", got)
	}
	c.winWasted.Store(50) // 50% wasted: clamp
	if got := c.effectiveReadAhead(); got != 1 {
		t.Fatalf("effectiveReadAhead = %d at 50%% waste, want 1", got)
	}
	c.winIssued.Store(10) // too few samples to judge
	c.winWasted.Store(9)
	if got := c.effectiveReadAhead(); got != 4 {
		t.Fatalf("effectiveReadAhead = %d under the sample floor, want 4", got)
	}
	// The window decays: a large sample halves, letting a recovered
	// workload unclamp instead of dragging lifetime history.
	c.winIssued.Store(2000)
	c.winWasted.Store(600) // 30% over the window: clamped...
	if got := c.effectiveReadAhead(); got != 1 {
		t.Fatalf("effectiveReadAhead = %d at 30%% windowed waste, want 1", got)
	}
	if iw := c.winIssued.Load(); iw != 1000 {
		t.Fatalf("window did not decay: issued %d, want 1000", iw)
	}
	if ww := c.winWasted.Load(); ww != 300 {
		t.Fatalf("window did not decay: wasted %d, want 300", ww)
	}
}

// TestStreamingScanSuppressesReadAhead: once a file is classified as a
// streaming scan and the cache is full (cold admission would bypass its
// blocks), read-ahead stops issuing prefetches — otherwise every block of
// the scan would be fetched, dropped by admission, and fetched again by
// the demand read.
func TestStreamingScanSuppressesReadAhead(t *testing.T) {
	const (
		blockSz  = 1024
		capacity = 8 * blockSz
		footerSp = 16
	)
	mem := objstore.NewMemory()
	if err := mem.Put("hot", blob(8*blockSz)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("big", blob(64*blockSz)); err != nil {
		t.Fatal(err)
	}
	c := New(mem, Config{
		Capacity: capacity, BlockSize: blockSz, Shards: 1,
		ReadAhead: 2, FooterSpan: footerSp, ScanResistMin: 16 * blockSz,
	})
	// Fill the cache with the (non-streaming) hot file.
	for off := int64(0); off+blockSz <= 8*blockSz-footerSp; off += blockSz {
		if _, err := c.GetRange("hot", off, blockSz/2); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitReadAhead()
	issuedBefore := c.Stats().PrefetchIssued

	streamFile(t, c, "big", 64*blockSz, blockSz, footerSp)
	c.WaitReadAhead()
	st := c.Stats()
	if st.ScanBypasses == 0 {
		t.Fatalf("streaming scan of a full cache produced no bypasses: %+v", st)
	}
	// Only the pre-classification reads (streak < 2, cold=false) may have
	// prefetched; once cold + full, issuance must stop. Without the
	// suppression every one of the ~60 blocks would be prefetched.
	if issued := st.PrefetchIssued - issuedBefore; issued > 6 {
		t.Fatalf("streaming scan issued %d prefetches into a full cache", issued)
	}
}

// bypassFixture is a one-shard cache of 8 blocks holding a 6-block hot
// file, plus a 64-block file that a scan streams through it. The scan's
// first two blocks, read before it is classified streaming, fill the
// shard; admission then refuses every later block.
func bypassFixture(t *testing.T) (*CachingStore, *countingStore, func() Stats) {
	t.Helper()
	const (
		blockSz  = 1024
		footerSp = 16
	)
	mem := objstore.NewMemory()
	if err := mem.Put("hot", blob(6*blockSz+footerSp)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("big", blob(64*blockSz)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{
		Capacity: 8 * blockSz, BlockSize: blockSz, Shards: 1,
		ReadAhead: -1, FooterSpan: footerSp, ScanResistMin: 16 * blockSz,
	})
	readHot := func() Stats {
		t.Helper()
		for off := int64(0); off < 6*blockSz; off += blockSz {
			if _, err := c.GetRange("hot", off, blockSz/2); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	readHot()
	return c, cs, readHot
}

// TestStreamingBypassReadsExactRange: a streaming scan over a full shard
// reads exactly the bytes it requests from the inner store — one request
// per read, not one block per spanned block — while the hot file stays
// resident and ScanBypasses still counts one refused block per block the
// reads span.
func TestStreamingBypassReadsExactRange(t *testing.T) {
	const blockSz = 1024
	c, cs, readHot := bypassFixture(t)
	want := blob(64 * blockSz)

	// Projected-column shape: 700-byte reads every 900 bytes, so some
	// reads straddle a block boundary.
	const step, length = 900, 700
	var n, requested, spanned int64
	var before Stats
	var gets, bytesIn int64
	for off := int64(0); off+length <= 60*blockSz; off += step {
		// The reads up to block 1 build the sequential streak on the block
		// path and fill the shard; every read past them is streaming and
		// touches no resident block.
		measured := off >= 2*blockSz
		if measured && n == 0 {
			before, gets, bytesIn = c.Stats(), cs.gets.Load(), cs.bytes.Load()
		}
		got, err := c.GetRange("big", off, length)
		if err != nil || !bytes.Equal(got, want[off:off+length]) {
			t.Fatalf("read @%d: err %v, data ok %v", off, err, bytes.Equal(got, want[off:off+length]))
		}
		if measured {
			n++
			requested += length
			spanned += (off+length-1)/blockSz - off/blockSz + 1
		}
	}
	st := c.Stats()
	if d := cs.bytes.Load() - bytesIn; d != requested {
		t.Errorf("inner bytes read = %d for %d requested bytes (%d reads)", d, requested, n)
	}
	if d := cs.gets.Load() - gets; d > n {
		t.Errorf("inner gets = %d for %d reads", d, n)
	}
	if d := st.ScanBypasses - before.ScanBypasses; d != spanned {
		t.Errorf("ScanBypasses = %d, want %d (one per spanned block)", d, spanned)
	}
	if d := st.BytesFetched - before.BytesFetched; d != requested {
		t.Errorf("BytesFetched = %d, want %d", d, requested)
	}
	if d := st.Misses - before.Misses; d != n {
		t.Errorf("misses = %d, want %d", d, n)
	}
	if st.ColdAdmits != before.ColdAdmits || st.Evictions != before.Evictions {
		t.Errorf("bypass reads changed the cache: %+v vs %+v", st, before)
	}
	if st.Evictions != 0 {
		t.Errorf("the scan evicted %d blocks", st.Evictions)
	}
	if d := readHot(); d.Misses != st.Misses {
		t.Fatalf("streaming scan evicted the hot file: %+v vs %+v", d, st)
	}
}

// TestStreamingBypassFault: an inner error on a bypass read reaches the
// caller, and nothing of the failed read is cached.
func TestStreamingBypassFault(t *testing.T) {
	const blockSz = 1024
	c, cs, _ := bypassFixture(t)
	streamFile(t, c, "big", 4*blockSz, blockSz, 0) // streak ≥ 2: streaming
	before := c.Stats()
	fs := objstore.NewFaultStore(cs.Store, objstore.FaultConfig{FailFirst: 1})
	cs.fault = fs
	if _, err := c.GetRange("big", 8*blockSz, 100); !errors.Is(err, objstore.ErrInjected) {
		t.Fatalf("bypass read err = %v, want ErrInjected", err)
	}
	if fs.Stats().InjectedErrors != 1 {
		t.Fatalf("fault not injected: %+v", fs.Stats())
	}
	if st := c.Stats(); st.ColdAdmits != before.ColdAdmits || st.BytesFetched != before.BytesFetched ||
		st.ScanBypasses != before.ScanBypasses {
		t.Fatalf("failed bypass read changed the cache: %+v vs %+v", st, before)
	}
	if c.shardFor("big").contains("big", 8) {
		t.Fatal("failed bypass read left a resident block")
	}
	// The fault is spent: the retry succeeds with the right bytes.
	got, err := c.GetRange("big", 8*blockSz, 100)
	if err != nil || !bytes.Equal(got, blob(64 * blockSz)[8*blockSz:8*blockSz+100]) {
		t.Fatalf("retry: err %v", err)
	}
}

// TestStreamingBypassRacesPut runs concurrent streaming readers, whose
// reads take the bypass path, against writers that rewrite the streamed
// file and the hot file (race-detector coverage). Every read returns one
// of the two versions byte for byte, and after the writers stop the new
// version is served.
func TestStreamingBypassRacesPut(t *testing.T) {
	const blockSz = 1024
	c, _, _ := bypassFixture(t)
	v1 := blob(64 * blockSz)
	v2 := bytes.Repeat([]byte{0x5A}, 64*blockSz)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for off := int64(g * 100); off+600 <= 60*blockSz; off += 800 {
					got, err := c.GetRange("big", off, 600)
					if err != nil {
						t.Errorf("read @%d: %v", off, err)
						return
					}
					// A read spanning blocks may mix versions block by
					// block, as on the block path; no byte may be foreign.
					for i, b := range got {
						if b != v1[off+int64(i)] && b != v2[off+int64(i)] {
							t.Errorf("read @%d: foreign byte at %d", off, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			data := v1
			if i%2 == 1 {
				data = v2
			}
			if err := c.Put("big", data); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if err := c.Put("hot", blob(6*blockSz+16)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	got, err := c.GetRange("big", 5*blockSz, 600)
	if err != nil || !bytes.Equal(got, v2[5*blockSz:5*blockSz+600]) {
		t.Fatalf("last write not visible: err %v", err)
	}
}
