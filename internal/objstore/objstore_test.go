package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// storeSuite exercises the Store contract against any implementation.
func storeSuite(t *testing.T, s Store) {
	t.Helper()

	// Missing key behaviours.
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := s.GetRange("missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetRange(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Head(missing) err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("missing"); err != nil {
		t.Errorf("Delete(missing) err = %v, want nil (S3 semantics)", err)
	}

	// Put / Get round trip.
	data := []byte("hello, columnar world")
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("db/tbl/file-0.pxl")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Overwrite.
	if err := s.Put("db/tbl/file-0.pxl", []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, _ = s.Get("db/tbl/file-0.pxl")
	if string(got) != "v2" {
		t.Fatalf("overwrite visible = %q", got)
	}
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatal(err)
	}

	// Range reads.
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
	size := int64(len(data))
	for _, length := range []int64{0, -1} {
		rng, err = s.GetRange("db/tbl/file-0.pxl", size, length)
		if err != nil || len(rng) != 0 {
			t.Errorf("GetRange(off=size, length=%d) = %q, %v; want empty, nil", length, rng, err)
		}
	}
	if _, err := s.GetRange("db/tbl/file-0.pxl", size+1, 0); err == nil {
		t.Errorf("GetRange offset past end did not error")
	}
	if rng, err = s.GetRange("db/tbl/file-0.pxl", 0, size); err != nil {
		t.Fatalf("GetRange whole object: %v", err)
	}
	for i := range rng {
		rng[i] = 0
	}
	if got, _ := s.Get("db/tbl/file-0.pxl"); !bytes.Equal(got, data) {
		t.Errorf("store corrupted by mutating a GetRange result")
	}

	// Head.
	info, err := s.Head("db/tbl/file-0.pxl")
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Head = %+v, %v", info, err)
	}

	// List with prefix, sorted.
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
	if infos[0].Key != "db/tbl/file-0.pxl" || infos[1].Key != "db/tbl/file-1.pxl" {
		t.Fatalf("List order wrong: %v", infos)
	}

	// List prefixes that end mid-name, span directories, or name no
	// existing directory.
	for _, tc := range []struct {
		prefix string
		want   []string
	}{
		{"", []string{"db/other/file-9.pxl", "db/tbl/file-0.pxl", "db/tbl/file-1.pxl"}},
		{"db/", []string{"db/other/file-9.pxl", "db/tbl/file-0.pxl", "db/tbl/file-1.pxl"}},
		{"db/tbl/file-1", []string{"db/tbl/file-1.pxl"}},
		{"db/tbl/file-", []string{"db/tbl/file-0.pxl", "db/tbl/file-1.pxl"}},
		{"db/t", []string{"db/tbl/file-0.pxl", "db/tbl/file-1.pxl"}},
		{"db/tbl/file-0.pxl/", nil},
		{"db/missing/", nil},
		{"nowhere/at/all/", nil},
		{"nowhere", nil},
	} {
		infos, err := s.List(tc.prefix)
		if err != nil {
			t.Fatalf("List(%q): %v", tc.prefix, err)
		}
		var got []string
		for _, info := range infos {
			got = append(got, info.Key)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("List(%q) = %v, want %v", tc.prefix, got, tc.want)
		}
	}

	// Delete removes.
	if err := s.Delete("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("db/tbl/file-1.pxl"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key still present")
	}

	// Empty key rejected.
	if err := s.Put("", []byte("x")); err == nil {
		t.Errorf("Put with empty key accepted")
	}

	// Mutating the returned buffer must not corrupt the store.
	got, _ = s.Get("db/tbl/file-0.pxl")
	for i := range got {
		got[i] = 0
	}
	got2, _ := s.Get("db/tbl/file-0.pxl")
	if !bytes.Equal(got2, data) {
		t.Errorf("store corrupted by caller mutation")
	}
}

func TestMemoryStore(t *testing.T) { storeSuite(t, NewMemory()) }

func TestDiskStore(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	storeSuite(t, d)

	// A Put interrupted between write and rename leaves a ".tmp" file;
	// it is not an object and must never be listed.
	if err := os.WriteFile(filepath.Join(root, "db", "tbl", "file-2.pxl.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"", "db/tbl/", "db/tbl/file-2"} {
		infos, err := d.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			if strings.HasSuffix(info.Key, ".tmp") {
				t.Fatalf("List(%q) returned temp file %s", prefix, info.Key)
			}
		}
	}
}

func TestMeteredStore(t *testing.T) {
	m := NewMetered(NewMemory())
	storeSuite(t, m)
}

func TestDiskRejectsTraversal(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("../evil", []byte("x")); err == nil {
		t.Fatalf("path traversal accepted")
	}
	if err := d.Put("/abs", []byte("x")); err == nil {
		t.Fatalf("absolute key accepted")
	}
}

// Deleting the last object under a key prefix must not leave the empty
// directories the key's slashes implied — one swept per-query shuffle
// namespace would otherwise accumulate one empty dir per query.
func TestDiskDeletePrunesEmptyDirs(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	keep := "db/tbl/file-0.pxl"
	if err := d.Put(keep, []byte("k")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"_intermediate/q-1/part-0.a0.pxl", "_intermediate/q-1/part-1.a0.pxl"} {
		if err := d.Put(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting one of two objects keeps the shared parent.
	if err := d.Delete("_intermediate/q-1/part-0.a0.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "_intermediate", "q-1")); err != nil {
		t.Fatalf("shared parent removed early: %v", err)
	}
	// Deleting the last one prunes q-1 and _intermediate but not the root.
	if err := d.Delete("_intermediate/q-1/part-1.a0.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "_intermediate")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty _intermediate dir left behind: %v", err)
	}
	if _, err := d.Get(keep); err != nil {
		t.Fatalf("unrelated object lost: %v", err)
	}
}

func TestMeteredCounts(t *testing.T) {
	m := NewMetered(NewMemory())
	if err := m.Put("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetRange("a", 0, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Head("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.List(""); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// Failed request should not count.
	if _, err := m.Get("missing"); err == nil {
		t.Fatal("expected miss")
	}
	u := m.Usage()
	want := Usage{Gets: 2, Puts: 1, Heads: 1, Lists: 1, Deletes: 1, BytesRead: 140, BytesWritten: 100}
	if u != want {
		t.Fatalf("Usage = %+v, want %+v", u, want)
	}
	m.Reset()
	if m.Usage() != (Usage{}) {
		t.Fatalf("Reset did not zero: %+v", m.Usage())
	}
}

func TestUsageAddSub(t *testing.T) {
	a := Usage{Gets: 3, Puts: 1, BytesRead: 100}
	b := Usage{Gets: 1, BytesRead: 40, BytesWritten: 7}
	sum := a.Add(b)
	if sum.Gets != 4 || sum.BytesRead != 140 || sum.BytesWritten != 7 || sum.Puts != 1 {
		t.Fatalf("Add = %+v", sum)
	}
	if d := sum.Sub(b); d != a {
		t.Fatalf("Sub = %+v, want %+v", d, a)
	}
}

func TestMemoryConcurrentAccess(t *testing.T) {
	m := NewMetered(NewMemory())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k/%d/%d", g, i)
				if err := m.Put(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	infos, err := m.List("k/")
	if err != nil || len(infos) != 400 {
		t.Fatalf("List after concurrency = %d objects, %v", len(infos), err)
	}
	u := m.Usage()
	if u.Puts != 400 || u.Gets != 400 {
		t.Fatalf("usage after concurrency: %+v", u)
	}
}

// TestParallelGetRange exercises every backend under concurrent ranged
// reads of shared and private keys — the access pattern of parallel
// VM-side workers — and verifies served bytes. Run with -race.
func TestParallelGetRange(t *testing.T) {
	const n = 64 << 10
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = byte(i*31 + i/7)
	}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Store{
		"memory":  NewMemory(),
		"disk":    disk,
		"metered": NewMetered(NewMemory()),
	}
	for name, s := range backends {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("shared", blob); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					key := "shared"
					if g%2 == 1 { // half the readers use a private key
						key = fmt.Sprintf("own/%d", g)
						if err := s.Put(key, blob); err != nil {
							t.Error(err)
							return
						}
					}
					for i := 0; i < 64; i++ {
						off := int64((g*997 + i*8191) % (n - 512))
						got, err := s.GetRange(key, off, 512)
						if err != nil || !bytes.Equal(got, blob[off:off+512]) {
							t.Errorf("g%d read %s@%d: %v", g, key, off, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// fakeCacheSource is a settable CacheCounterSource.
type fakeCacheSource struct{ hits, misses, wasted int64 }

func (f *fakeCacheSource) CacheCounters() (int64, int64, int64) {
	return f.hits, f.misses, f.wasted
}

func TestMeteredCacheCounters(t *testing.T) {
	m := NewMetered(NewMemory())
	if u := m.Usage(); u.CacheHits != 0 || u.CacheMisses != 0 || u.PrefetchWasted != 0 {
		t.Fatalf("cache counters nonzero with no cache attached: %+v", u)
	}
	src := &fakeCacheSource{hits: 10, misses: 4, wasted: 1}
	m.AttachCache(src)
	u := m.Usage()
	if u.CacheHits != 10 || u.CacheMisses != 4 || u.PrefetchWasted != 1 {
		t.Fatalf("Usage cache counters = %+v", u)
	}
	// Reset re-baselines the monotonic cache counters.
	m.Reset()
	src.hits, src.misses, src.wasted = 13, 5, 2
	u = m.Usage()
	if u.CacheHits != 3 || u.CacheMisses != 1 || u.PrefetchWasted != 1 {
		t.Fatalf("post-Reset deltas = %+v, want 3/1/1", u)
	}
	// Deltas via Sub carry the cache fields too.
	d := u.Sub(Usage{CacheHits: 1})
	if d.CacheHits != 2 {
		t.Fatalf("Sub cache fields = %+v", d)
	}
}

func TestRangeReadProperty(t *testing.T) {
	blob := make([]byte, 1024)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"memory": NewMemory(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("blob", blob); err != nil {
				t.Fatal(err)
			}
			f := func(off, length uint16) bool {
				o := int64(off) % 1024
				l := int64(length) % (1024 - o + 1)
				got, err := s.GetRange("blob", o, l)
				if err != nil {
					return false
				}
				return bytes.Equal(got, blob[o:o+l])
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// The ranged-read allocation guard and benchmark read blocks of the read
// cache's default size from a multi-block file.
const rangeFileSize, rangeBlock = 2 << 20, 256 << 10

func diskRangeFixture(tb testing.TB) *Disk {
	tb.Helper()
	d, err := NewDisk(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Put("db/tbl/file-0.pxl", make([]byte, rangeFileSize)); err != nil {
		tb.Fatal(err)
	}
	return d
}

// A ranged read from disk must allocate about the range, not the whole
// file: a whole-file read would allocate 8x the range here.
func TestDiskGetRangeAllocatesRangeOnly(t *testing.T) {
	d := diskRangeFixture(t)
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < calls; i++ {
		if _, err := d.GetRange("db/tbl/file-0.pxl", i*rangeBlock%rangeFileSize, rangeBlock); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 2*rangeBlock {
		t.Fatalf("Disk.GetRange of %d B allocated %d B per call, want < %d", rangeBlock, perCall, 2*rangeBlock)
	}
}

var rangeSink []byte

func BenchmarkDiskGetRange(b *testing.B) {
	d := diskRangeFixture(b)
	b.ReportAllocs()
	b.SetBytes(rangeBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := d.GetRange("db/tbl/file-0.pxl", int64(i)*rangeBlock%rangeFileSize, rangeBlock)
		if err != nil {
			b.Fatal(err)
		}
		rangeSink = data
	}
}
