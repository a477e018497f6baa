package objstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a Store backed by a local directory. Keys map to files under the
// root, with '/' in keys becoming directory separators. Every deployment
// with a data directory (the REST server, the benchmark) keeps its tables
// here and serves read-cache misses, footer loads and CF intermediate reads
// from it; the simulators and most unit tests use Memory. GetRange reads
// exactly the requested bytes with one positioned read.
type Disk struct {
	root string
	mu   sync.RWMutex
}

// NewDisk returns a store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &Disk{root: dir}, nil
}

func (d *Disk) path(key string) (string, error) {
	if key == "" {
		return "", errors.New("objstore: empty key")
	}
	clean := filepath.Clean(filepath.FromSlash(key))
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(d.root, clean), nil
}

// Put implements Store.
func (d *Disk) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// GetRange implements Store.
func (d *Disk) GetRange(key string, off, length int64) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("objstore: get range %s: %w", key, err)
	}
	end, err := rangeEnd(fi.Size(), off, length, key)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, end-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("objstore: get range %s: %w", key, err)
	}
	return buf, nil
}

// Head implements Store.
func (d *Disk) Head(key string) (ObjectInfo, error) {
	p, err := d.path(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	fi, err := os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err = os.Remove(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	// Object stores have no directories; the ones the key's slashes
	// implied are an implementation detail and must not accumulate (the
	// per-query shuffle namespaces would otherwise leave one empty dir
	// each). Stop at the first non-empty parent or the root.
	for dir := filepath.Dir(p); dir != d.root; dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			break
		}
	}
	return nil
}

// List implements Store. The walk starts at the directory part of the
// prefix, so sweeping one query's intermediates visits only that query's
// files, not the whole data root; a missing directory lists nothing.
// Leftover ".tmp" files of interrupted Puts are never listed.
func (d *Disk) List(prefix string) ([]ObjectInfo, error) {
	start := d.root
	if i := strings.LastIndex(prefix, "/"); i > 0 {
		p, err := d.path(prefix[:i])
		if err != nil {
			return nil, nil // no valid key lies under an invalid path
		}
		start = p
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var infos []ObjectInfo
	err := filepath.WalkDir(start, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			if p == start && errors.Is(err, fs.ErrNotExist) {
				return fs.SkipAll
			}
			return err
		}
		if entry.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) || strings.HasSuffix(key, ".tmp") {
			return nil
		}
		fi, err := entry.Info()
		if err != nil {
			return err
		}
		infos = append(infos, ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}
