// Package cache puts a read-through caching layer in front of any
// objstore.Store. It exists because the $/TB-scan economics of the paper
// hinge on how fast a VM slot can stream row groups out of the object
// store: workers issue one ranged GET per column chunk and re-read file
// footers on every open, so repeated and concurrent scans pay the full
// request count every time.
//
// The CachingStore provides three mechanisms:
//
//   - A bounded, sharded block LRU: ranged reads are served from
//     fixed-size blocks keyed by (key, block offset, block length), so hot
//     byte ranges of base tables stay resident across queries.
//   - A footer/metadata cache: the trailing FooterSpan bytes of each file
//     plus its Head info are pinned per key, so pixfile.Open on an
//     already-seen file costs zero store requests.
//   - Sequential read-ahead: monotonically advancing reads of the same key
//     (the access pattern of row-group-ordered scans) trigger asynchronous
//     prefetch of the next ReadAhead blocks, overlapping object-store I/O
//     with compute.
//
// Concurrent readers of the same uncached block are collapsed into a
// single inner request (single-flight), which matters when parallel
// workers of one query — or coalesced queries — walk the same files.
// Single-flight covers cacheable blocks only: a streaming read whose
// blocks admission would refuse fetches its exact byte range directly.
//
// The cache is a physical-I/O optimization only: billed bytes-scanned are
// accounted reader-side (pixfile.File.BytesRead) and are identical with
// the cache on or off. Writers must go through the CachingStore (Put and
// Delete invalidate); out-of-band writes to the inner store leave the
// cache stale.
package cache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objstore"
)

// Config parameterizes a CachingStore. The zero value gives sane defaults;
// only Capacity is commonly tuned.
type Config struct {
	// Capacity bounds the total bytes of cached blocks across all shards
	// (default 64 MiB). Footer bytes are budgeted separately and bounded by
	// MaxFiles × FooterSpan.
	Capacity int64
	// BlockSize is the fetch/cache granularity for ranged reads (default
	// 256 KiB). Larger blocks amortize request costs, smaller blocks waste
	// less on selective reads. Reads that scan-resistant admission would
	// refuse to cache skip the block rounding and fetch the exact range.
	BlockSize int64
	// ReadAhead is how many blocks past the current read are prefetched
	// once sequential access is detected (default 2; negative disables).
	ReadAhead int
	// FooterSpan is how many trailing bytes of each file are pinned in the
	// footer cache (default 64 KiB — comfortably above pixfile footers).
	FooterSpan int64
	// MaxFiles bounds the per-file metadata/footer entries (default 512).
	MaxFiles int
	// Shards is the block-LRU shard count (default 8).
	Shards int
	// MaxSeqGap is the largest forward gap between consecutive reads still
	// treated as sequential — column projections skip unread chunks, so
	// row-group-ordered access is monotonic, not contiguous (default
	// 4×BlockSize).
	MaxSeqGap int64
	// ScanResistMin makes the block LRU scan-resistant: once a file at
	// least this large is being read sequentially (a one-pass scan of data
	// that cannot all fit), its blocks are admitted at the cold end of the
	// LRU — and skipped entirely under capacity pressure — so a large scan
	// cannot flush the hot small-table blocks that the front of the LRU
	// protects. 0 picks the default of half the per-shard capacity
	// (Capacity/Shards/2 — one key's blocks all land in one shard, so a
	// shard is the flush domain a scan threatens); negative disables scan
	// resistance (every block is admitted hot, the pre-existing behavior).
	ScanResistMin int64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 10
	}
	if c.ReadAhead == 0 {
		c.ReadAhead = 2
	} else if c.ReadAhead < 0 {
		c.ReadAhead = 0
	}
	if c.FooterSpan <= 0 {
		c.FooterSpan = 64 << 10
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = 512
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxSeqGap <= 0 {
		c.MaxSeqGap = 4 * c.BlockSize
	}
	switch {
	case c.ScanResistMin == 0:
		// All blocks of one key hash to a single shard, so the flush
		// domain a scan threatens is a shard, not the whole cache: scale
		// the default threshold to per-shard capacity.
		c.ScanResistMin = c.Capacity / int64(c.Shards) / 2
	case c.ScanResistMin < 0:
		c.ScanResistMin = 0 // disabled
	}
	return c
}

// Stats is a snapshot of cache activity. Counters are monotonic.
type Stats struct {
	// Hits / Misses count GetRange calls served entirely from cache vs
	// calls that needed at least one inner request.
	Hits, Misses int64
	// FooterHits counts reads served from the pinned footer cache.
	FooterHits int64
	// ParsedFooterHits counts reopens served from the decoded-footer cache
	// (no fetch, no CRC/tail validation, no parse).
	ParsedFooterHits int64
	// BytesFromCache / BytesFetched split served bytes by origin.
	BytesFromCache, BytesFetched int64
	// PrefetchIssued / PrefetchUsed / PrefetchWasted account read-ahead:
	// blocks fetched ahead of demand, those later consumed, and those
	// evicted (or flushed) without ever being read.
	PrefetchIssued, PrefetchUsed, PrefetchWasted int64
	// SingleFlightShared counts reads that piggybacked on an in-flight
	// identical fetch instead of issuing their own.
	SingleFlightShared int64
	// Evictions counts blocks dropped under capacity pressure.
	Evictions int64
	// ColdAdmits / ScanBypasses account the scan-resistant admission
	// policy: blocks of a streaming large file inserted at the LRU's cold
	// end, and blocks not cached at all because inserting them would have
	// evicted hot data. A read whose every block would be bypassed fetches
	// only its requested range and counts one bypass per block it spans.
	ColdAdmits, ScanBypasses int64
}

// CachingStore wraps an objstore.Store with the block LRU, footer cache
// and read-ahead described in the package comment. It is safe for
// concurrent use.
type CachingStore struct {
	inner objstore.Store
	cfg   Config

	shards []*shard

	mu       sync.Mutex // guards files map, file LRU and per-file seq state
	files    map[string]*fileMeta
	fileList *list.List // front = most recently used

	flightMu sync.Mutex
	flight   map[string]*call

	prefetchSem chan struct{}
	prefetchWG  sync.WaitGroup

	hits, misses, footerHits         atomic.Int64
	parsedFooterHits                 atomic.Int64
	bytesFromCache, bytesFetched     atomic.Int64
	prefIssued, prefUsed, prefWasted atomic.Int64
	sfShared, evictions              atomic.Int64
	coldAdmits, scanBypasses         atomic.Int64

	// winIssued/winWasted are the decaying-window counterparts of
	// prefIssued/prefWasted: effectiveReadAhead clamps on these so one bad
	// early phase cannot depress read-ahead for the process's lifetime
	// (the monotonic Stats counters stay untouched).
	winIssued, winWasted atomic.Int64
}

// fileMeta is the pinned per-file entry: size, mod time, the trailing
// footer bytes, the decoded-footer object, and the sequential-access
// detector state.
type fileMeta struct {
	key       string
	size      int64
	modTime   time.Time
	footerOff int64  // size - FooterSpan, clamped to 0
	footer    []byte // nil until first footer-region read; guarded by s.mu

	// parsed is the reader's decoded footer for (key, parsedSize), stored
	// via StoreParsedFooter; guarded by s.mu. It rides the same entry — and
	// therefore the same MaxFiles LRU bound and Put/Delete invalidation —
	// as the pinned footer bytes.
	parsed     any
	parsedSize int64

	lastEnd int64 // end offset of the previous block-path read; s.mu
	streak  int   // consecutive sequential reads; s.mu

	// noStore marks a detached entry whose Head raced an invalidation:
	// its size may predate the write, so nothing read through it (blocks,
	// footer) may be inserted into the cache.
	noStore bool

	elem *list.Element
}

// call is one in-flight inner fetch shared by concurrent readers.
type call struct {
	wg       sync.WaitGroup
	data     []byte
	info     objstore.ObjectInfo
	err      error
	demanded atomic.Bool // a demand (non-prefetch) reader needs the result
	// noStore is set when the key is invalidated while this fetch is in
	// flight: the result may predate the write, so it is returned to the
	// waiting readers but must not be inserted into the cache.
	noStore atomic.Bool
}

// block is one cached fixed-size range of a file.
type block struct {
	key        string
	idx        int64
	data       []byte
	prefetched bool
	used       bool
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	cur      int64
	ll       *list.List // front = most recently used
	blocks   map[string]map[int64]*list.Element
}

// New layers a cache over inner. All reads and writes of the cached keys
// must go through the returned store.
func New(inner objstore.Store, cfg Config) *CachingStore {
	cfg = cfg.withDefaults()
	s := &CachingStore{
		inner:    inner,
		cfg:      cfg,
		files:    make(map[string]*fileMeta),
		fileList: list.New(),
		flight:   make(map[string]*call),
	}
	if n := cfg.ReadAhead; n > 0 {
		s.prefetchSem = make(chan struct{}, n)
	}
	perShard := cfg.Capacity / int64(cfg.Shards)
	if perShard < cfg.BlockSize {
		perShard = cfg.BlockSize
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			capacity: perShard,
			ll:       list.New(),
			blocks:   make(map[string]map[int64]*list.Element),
		})
	}
	return s
}

// Inner returns the wrapped store.
func (s *CachingStore) Inner() objstore.Store { return s.inner }

// Stats returns a snapshot of the cache counters.
func (s *CachingStore) Stats() Stats {
	return Stats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		FooterHits:         s.footerHits.Load(),
		ParsedFooterHits:   s.parsedFooterHits.Load(),
		BytesFromCache:     s.bytesFromCache.Load(),
		BytesFetched:       s.bytesFetched.Load(),
		PrefetchIssued:     s.prefIssued.Load(),
		PrefetchUsed:       s.prefUsed.Load(),
		PrefetchWasted:     s.prefWasted.Load(),
		SingleFlightShared: s.sfShared.Load(),
		Evictions:          s.evictions.Load(),
		ColdAdmits:         s.coldAdmits.Load(),
		ScanBypasses:       s.scanBypasses.Load(),
	}
}

// CacheCounters implements objstore.CacheCounterSource so a Metered store
// beneath the cache can surface hit/miss/wasted counts in its Usage.
func (s *CachingStore) CacheCounters() (hits, misses, prefetchWasted int64) {
	return s.hits.Load(), s.misses.Load(), s.prefWasted.Load()
}

func (s *CachingStore) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// do deduplicates concurrent fetches of the same flight key. It returns
// the shared call and whether this goroutine executed fn (the "winner").
func (s *CachingStore) do(key string, demand bool, fn func() ([]byte, objstore.ObjectInfo, error)) (*call, bool) {
	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		if demand {
			c.demanded.Store(true)
		}
		s.sfShared.Add(1)
		c.wg.Wait()
		return c, false
	}
	c := &call{}
	c.demanded.Store(demand)
	c.wg.Add(1)
	s.flight[key] = c
	s.flightMu.Unlock()

	c.data, c.info, c.err = fn()

	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	c.wg.Done()
	return c, true
}

// meta returns the pinned per-file entry, loading it with one Head on
// first access. cached reports whether no inner request was needed.
func (s *CachingStore) meta(key string) (fm *fileMeta, cached bool, err error) {
	s.mu.Lock()
	if fm, ok := s.files[key]; ok {
		s.fileList.MoveToFront(fm.elem)
		s.mu.Unlock()
		return fm, true, nil
	}
	s.mu.Unlock()

	c, _ := s.do("h\x00"+key, true, func() ([]byte, objstore.ObjectInfo, error) {
		info, err := s.inner.Head(key)
		return nil, info, err
	})
	if c.err != nil {
		return nil, false, c.err
	}

	if c.noStore.Load() { // key written mid-flight: serve but don't cache
		fm = &fileMeta{key: key, size: c.info.Size, modTime: c.info.ModTime, noStore: true}
		fm.footerOff = fm.size - s.cfg.FooterSpan
		if fm.footerOff < 0 {
			fm.footerOff = 0
		}
		return fm, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fm, ok := s.files[key]; ok { // installed by a concurrent reader
		return fm, false, nil
	}
	fm = &fileMeta{key: key, size: c.info.Size, modTime: c.info.ModTime}
	fm.footerOff = fm.size - s.cfg.FooterSpan
	if fm.footerOff < 0 {
		fm.footerOff = 0
	}
	fm.elem = s.fileList.PushFront(fm)
	s.files[key] = fm
	for len(s.files) > s.cfg.MaxFiles {
		tail := s.fileList.Back()
		old := tail.Value.(*fileMeta)
		s.fileList.Remove(tail)
		delete(s.files, old.key)
	}
	return fm, false, nil
}

// footer returns the pinned trailing bytes of the file, loading them once.
func (s *CachingStore) footer(fm *fileMeta) (data []byte, cached bool, err error) {
	s.mu.Lock()
	f := fm.footer
	s.mu.Unlock()
	if f != nil {
		return f, true, nil
	}
	c, winner := s.do("f\x00"+fm.key, true, func() ([]byte, objstore.ObjectInfo, error) {
		data, err := s.inner.GetRange(fm.key, fm.footerOff, fm.size-fm.footerOff)
		return data, objstore.ObjectInfo{}, err
	})
	if c.err != nil {
		return nil, false, c.err
	}
	if winner {
		s.bytesFetched.Add(int64(len(c.data)))
	}
	if fm.noStore || c.noStore.Load() {
		return c.data, false, nil
	}
	s.mu.Lock()
	if fm.footer == nil {
		fm.footer = c.data
	}
	f = fm.footer
	s.mu.Unlock()
	return f, false, nil
}

// ParsedFooter implements objstore.ParsedFooterCache: it returns the
// decoded footer previously stored for key, provided the key is still
// resident and its size matches (a rewrite through this store invalidates
// the entry, so a size check suffices to reject entries stored before an
// observed write).
func (s *CachingStore) ParsedFooter(key string, size int64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[key]
	if !ok || fm.parsed == nil || fm.parsedSize != size {
		return nil, false
	}
	s.fileList.MoveToFront(fm.elem)
	s.parsedFooterHits.Add(1)
	return fm.parsed, true
}

// StoreParsedFooter implements objstore.ParsedFooterCache. The value must
// be immutable; it is dropped with the file entry on Put/Delete or under
// MaxFiles pressure.
func (s *CachingStore) StoreParsedFooter(key string, size int64, footer any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[key]
	if !ok || fm.noStore || fm.size != size {
		return
	}
	fm.parsed, fm.parsedSize = footer, size
}

// isStreaming classifies a file as mid-one-pass-scan: large relative to
// the cache (ScanResistMin) and currently being read sequentially (streak
// from the sequential detector, read by the caller under s.mu). Its blocks
// then take the cold admission path.
func (s *CachingStore) isStreaming(fm *fileMeta, streak int) bool {
	return s.cfg.ScanResistMin > 0 && fm.size >= s.cfg.ScanResistMin && streak >= 2
}

// blockData returns one block of the file, from cache or via a
// single-flight inner fetch. demand distinguishes reader-driven fetches
// from read-ahead for the prefetch accounting; cold routes the block
// through the scan-resistant admission path.
func (s *CachingStore) blockData(fm *fileMeta, idx int64, demand, cold bool) (data []byte, cached bool, err error) {
	sh := s.shardFor(fm.key)
	if data, ok := sh.get(fm.key, idx, s); ok {
		return data, true, nil
	}
	blockOff := idx * s.cfg.BlockSize
	blockLen := s.cfg.BlockSize
	if blockOff+blockLen > fm.size {
		blockLen = fm.size - blockOff
	}
	c, winner := s.do(fmt.Sprintf("b\x00%s\x00%d", fm.key, idx), demand, func() ([]byte, objstore.ObjectInfo, error) {
		data, err := s.inner.GetRange(fm.key, blockOff, blockLen)
		return data, objstore.ObjectInfo{}, err
	})
	if c.err != nil {
		return nil, false, c.err
	}
	if winner {
		s.bytesFetched.Add(int64(len(c.data)))
		if !demand {
			s.prefIssued.Add(1)
			s.winIssued.Add(1)
		}
		// A prefetched block whose fetch a demand reader joined mid-flight
		// was already useful.
		used := c.demanded.Load()
		if !demand && used {
			s.prefUsed.Add(1)
		}
		if !fm.noStore && !c.noStore.Load() {
			sh.add(fm.key, idx, c.data, !demand, used, cold, s)
		}
	}
	return c.data, false, nil
}

// GetRangeCached implements objstore.CachedRanger: like GetRange, but also
// reports whether the read was served without any inner request, so the
// engine can attribute per-query cache hits.
func (s *CachingStore) GetRangeCached(key string, off, length int64) ([]byte, bool, error) {
	if off < 0 {
		return nil, false, fmt.Errorf("objstore: range offset %d out of bounds for %s", off, key)
	}
	fm, hit, err := s.meta(key)
	if err != nil {
		return nil, false, err
	}
	size := fm.size
	if off > size {
		return nil, false, fmt.Errorf("objstore: range offset %d out of bounds for %s (size %d)", off, key, size)
	}
	end := size
	if length >= 0 {
		end = off + length
		if end > size {
			return nil, false, fmt.Errorf("objstore: range [%d,%d) out of bounds for %s (size %d)", off, end, key, size)
		}
	}
	if end == off {
		return []byte{}, hit, nil
	}

	if off >= fm.footerOff {
		// Entirely within the pinned footer span.
		f, cached, err := s.footer(fm)
		if err != nil {
			return nil, false, err
		}
		out := make([]byte, end-off)
		copy(out, f[off-fm.footerOff:end-fm.footerOff])
		hit = hit && cached
		if cached {
			s.footerHits.Add(1)
		}
		s.recordCall(hit, int64(len(out)))
		return out, hit, nil
	}

	B := s.cfg.BlockSize
	first, last := off/B, (end-1)/B
	cold := false
	if s.cfg.ScanResistMin > 0 && fm.size >= s.cfg.ScanResistMin {
		// One lock, only for files large enough to qualify: the cold
		// classification uses the streak as of the previous reads.
		s.mu.Lock()
		streak := fm.streak
		s.mu.Unlock()
		cold = s.isStreaming(fm, streak)
	}
	if cold && s.shardFor(fm.key).refuses(fm.key, first, last, min(B, fm.size-last*B)) {
		// Admission would refuse every block of the span: fetch exactly
		// the requested bytes instead of whole blocks that get dropped.
		out, err := s.inner.GetRange(key, off, end-off)
		if err != nil {
			return nil, false, err
		}
		s.bytesFetched.Add(int64(len(out)))
		s.scanBypasses.Add(last - first + 1)
		s.recordCall(false, int64(len(out)))
		s.maybeReadAhead(fm, off, end, last)
		return out, false, nil
	}
	out := make([]byte, end-off)
	for idx := first; idx <= last; idx++ {
		data, cached, err := s.blockData(fm, idx, true, cold)
		if err != nil {
			return nil, false, err
		}
		blockOff := idx * B
		lo, hi := max(off, blockOff), min(end, blockOff+int64(len(data)))
		copy(out[lo-off:hi-off], data[lo-blockOff:hi-blockOff])
		hit = hit && cached
	}
	s.recordCall(hit, int64(len(out)))
	s.maybeReadAhead(fm, off, end, last)
	return out, hit, nil
}

func (s *CachingStore) recordCall(hit bool, n int64) {
	if hit {
		s.hits.Add(1)
		s.bytesFromCache.Add(n)
	} else {
		s.misses.Add(1)
	}
}

// effectiveReadAhead is the configured depth clamped by the measured
// prefetch waste: once a meaningful share of recently prefetched blocks
// dies unread (PrefetchWasted — the tuning signal the cold-admission
// policy feeds when the cache is saturated), the window shrinks to one
// block so read-ahead stops amplifying a losing bet. The ratio is taken
// over a decaying window — both counters halve once enough samples
// accumulate — so the clamp recovers when the workload does instead of
// dragging process-lifetime history.
func (s *CachingStore) effectiveReadAhead() int {
	ra := s.cfg.ReadAhead
	if ra <= 1 {
		return ra
	}
	issued := s.winIssued.Load()
	if issued > 1024 {
		// Approximate halving; racy by design — this is a heuristic, and
		// a lost update only delays one decay step.
		s.winIssued.Store(issued / 2)
		s.winWasted.Store(s.winWasted.Load() / 2)
		issued /= 2
	}
	if issued >= 64 && s.winWasted.Load()*4 > issued {
		return 1
	}
	return ra
}

// maybeReadAhead advances the per-file sequential detector and, once two
// monotonically forward reads are seen, prefetches the next ReadAhead
// blocks asynchronously. Prefetch never blocks the caller: when the
// prefetcher is saturated the window is simply skipped.
func (s *CachingStore) maybeReadAhead(fm *fileMeta, off, end, last int64) {
	// The sequential detector always advances: it feeds both read-ahead
	// and the scan-resistant admission classifier (isStreaming).
	s.mu.Lock()
	seq := fm.lastEnd > 0 && off >= fm.lastEnd && off-fm.lastEnd <= s.cfg.MaxSeqGap
	if seq {
		fm.streak++
	} else {
		fm.streak = 1
	}
	fm.lastEnd = end
	streak := fm.streak
	s.mu.Unlock()
	if s.cfg.ReadAhead <= 0 || streak < 2 {
		return
	}
	cold := s.isStreaming(fm, streak)
	maxIdx := (fm.size - 1) / s.cfg.BlockSize
	sh := s.shardFor(fm.key)
	if cold && sh.atCapacity(s.cfg.BlockSize) {
		// Cold admission would bypass these blocks anyway: prefetching them
		// would fetch bytes that get dropped and then fetched again by the
		// demand read — read-ahead is pure waste for a streaming scan of a
		// full cache.
		return
	}
	ra := int64(s.effectiveReadAhead())
	for i := int64(1); i <= ra; i++ {
		idx := last + i
		// The footer region is served from the pinned footer cache; blocks
		// starting inside it are never demanded.
		if idx > maxIdx || idx*s.cfg.BlockSize >= fm.footerOff {
			return
		}
		if sh.contains(fm.key, idx) {
			continue
		}
		select {
		case s.prefetchSem <- struct{}{}:
			s.prefetchWG.Add(1)
			go func(idx int64) {
				defer func() { <-s.prefetchSem; s.prefetchWG.Done() }()
				_, _, _ = s.blockData(fm, idx, false, cold)
			}(idx)
		default:
			return
		}
	}
}

// WaitReadAhead blocks until no read-ahead fetches are in flight. It is a
// test and benchmark hook: with no concurrent readers issuing new reads,
// the cache is quiescent when it returns.
func (s *CachingStore) WaitReadAhead() { s.prefetchWG.Wait() }

// Flush drops every cached byte (blocks, footers, file metadata) while
// keeping the monotonic counters. Prefetched blocks never read count as
// wasted. Used by cold-cache benchmarks.
func (s *CachingStore) Flush() {
	s.prefetchWG.Wait()
	for _, sh := range s.shards {
		sh.flush(s)
	}
	s.mu.Lock()
	s.files = make(map[string]*fileMeta)
	s.fileList.Init()
	s.mu.Unlock()
}

func (s *CachingStore) invalidate(key string) {
	// Poison in-flight fetches of this key first: a fetch that started
	// before the write may hold pre-write bytes, and must not land in the
	// cache after the eviction below.
	metaKey, footKey, blockPrefix := "h\x00"+key, "f\x00"+key, "b\x00"+key+"\x00"
	s.flightMu.Lock()
	for fk, c := range s.flight {
		if fk == metaKey || fk == footKey || strings.HasPrefix(fk, blockPrefix) {
			c.noStore.Store(true)
		}
	}
	s.flightMu.Unlock()

	s.shardFor(key).invalidateKey(key)
	s.mu.Lock()
	if fm, ok := s.files[key]; ok {
		s.fileList.Remove(fm.elem)
		delete(s.files, key)
	}
	s.mu.Unlock()
}

// Put implements objstore.Store, invalidating cached state for the key.
func (s *CachingStore) Put(key string, data []byte) error {
	err := s.inner.Put(key, data)
	if err == nil {
		s.invalidate(key)
	}
	return err
}

// Get implements objstore.Store via the block cache, so full-object reads
// warm the same entries ranged reads use.
func (s *CachingStore) Get(key string) ([]byte, error) {
	data, _, err := s.GetRangeCached(key, 0, -1)
	return data, err
}

// GetRange implements objstore.Store.
func (s *CachingStore) GetRange(key string, off, length int64) ([]byte, error) {
	data, _, err := s.GetRangeCached(key, off, length)
	return data, err
}

// Head implements objstore.Store from the metadata cache.
func (s *CachingStore) Head(key string) (objstore.ObjectInfo, error) {
	fm, _, err := s.meta(key)
	if err != nil {
		return objstore.ObjectInfo{}, err
	}
	return objstore.ObjectInfo{Key: key, Size: fm.size, ModTime: fm.modTime}, nil
}

// Delete implements objstore.Store, invalidating cached state for the key.
func (s *CachingStore) Delete(key string) error {
	err := s.inner.Delete(key)
	if err == nil {
		s.invalidate(key)
	}
	return err
}

// List implements objstore.Store (passthrough — listings are not cached).
func (s *CachingStore) List(prefix string) ([]objstore.ObjectInfo, error) {
	return s.inner.List(prefix)
}

// ---- shard (block LRU) ----

// get returns a resident block and marks it used, or (nil, false).
func (sh *shard) get(key string, idx int64, s *CachingStore) ([]byte, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.blocks[key][idx]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	b := el.Value.(*block)
	if b.prefetched && !b.used {
		b.used = true
		s.prefUsed.Add(1)
	}
	return b.data, true
}

// atCapacity reports whether inserting one more block of the given size
// would exceed the shard's capacity (a point-in-time heuristic read; the
// admission decision itself is re-made under the lock in add).
func (sh *shard) atCapacity(blockSize int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cur+blockSize > sh.capacity
}

// refuses reports whether cold admission would turn away every block
// first..last of key: none is resident and the shard has no room for even
// the smallest of them (the last, which may be a short tail block). A
// refused block never changes the shard, so one check covers the span.
func (sh *shard) refuses(key string, first, last, lastLen int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cur+lastLen <= sh.capacity {
		return false
	}
	m := sh.blocks[key]
	for idx := first; idx <= last; idx++ {
		if _, ok := m[idx]; ok {
			return false
		}
	}
	return true
}

func (sh *shard) contains(key string, idx int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.blocks[key][idx]
	return ok
}

// add inserts a block, evicting from the cold end until under capacity.
// A cold insert (scan-resistant admission for streaming large files) goes
// to the back of the LRU when there is room — a later re-access still
// promotes it — and is bypassed entirely when caching it would evict
// warmer blocks, so a one-pass scan can never flush the hot set.
func (sh *shard) add(key string, idx int64, data []byte, prefetched, used, cold bool, s *CachingStore) {
	if int64(len(data)) > sh.capacity {
		return // would evict the whole shard for one entry
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.blocks[key][idx]; ok { // concurrent insert won
		sh.ll.MoveToFront(el)
		return
	}
	if cold && sh.cur+int64(len(data)) > sh.capacity {
		s.scanBypasses.Add(1)
		if prefetched && !used {
			// A prefetched block that admission refuses was fetched for
			// nothing: feed the waste signal the read-ahead clamp tunes on.
			s.prefWasted.Add(1)
			s.winWasted.Add(1)
		}
		return
	}
	m := sh.blocks[key]
	if m == nil {
		m = make(map[int64]*list.Element)
		sh.blocks[key] = m
	}
	b := &block{key: key, idx: idx, data: data, prefetched: prefetched, used: used}
	var el *list.Element
	if cold {
		el = sh.ll.PushBack(b)
		s.coldAdmits.Add(1)
	} else {
		el = sh.ll.PushFront(b)
	}
	m[idx] = el
	sh.cur += int64(len(data))
	for sh.cur > sh.capacity {
		tail := sh.ll.Back()
		if tail == nil {
			break
		}
		sh.removeLocked(tail, s, true)
	}
}

// removeLocked unlinks one entry; countPressure distinguishes capacity
// evictions (which feed the eviction/wasted counters) from invalidation.
func (sh *shard) removeLocked(el *list.Element, s *CachingStore, countPressure bool) {
	b := el.Value.(*block)
	sh.ll.Remove(el)
	sh.cur -= int64(len(b.data))
	if m := sh.blocks[b.key]; m != nil {
		delete(m, b.idx)
		if len(m) == 0 {
			delete(sh.blocks, b.key)
		}
	}
	if countPressure {
		s.evictions.Add(1)
		if b.prefetched && !b.used {
			s.prefWasted.Add(1)
			s.winWasted.Add(1)
		}
	}
}

func (sh *shard) invalidateKey(key string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, el := range sh.blocks[key] {
		b := el.Value.(*block)
		sh.ll.Remove(el)
		sh.cur -= int64(len(b.data))
	}
	delete(sh.blocks, key)
}

func (sh *shard) flush(s *CachingStore) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for el := sh.ll.Front(); el != nil; el = el.Next() {
		b := el.Value.(*block)
		if b.prefetched && !b.used {
			s.prefWasted.Add(1)
			s.winWasted.Add(1)
		}
	}
	sh.ll.Init()
	sh.blocks = make(map[string]map[int64]*list.Element)
	sh.cur = 0
}

var (
	_ objstore.Store             = (*CachingStore)(nil)
	_ objstore.CachedRanger      = (*CachingStore)(nil)
	_ objstore.ParsedFooterCache = (*CachingStore)(nil)
)
