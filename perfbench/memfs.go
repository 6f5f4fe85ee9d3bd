package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/diskio"
)

// memFS is an in-memory diskio.FS: the benchmark's stand-in for tmpfs.
// The program still makes every open, write, fsync, rename and
// directory sync it would make on a disk; the calls just cost what
// they cost on tmpfs (no device wait), and nothing leaves the process.
// Directories are implicit — any path may hold files — which matches
// how the store, checkpoint and cache use the seam.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	dirs  map[string]bool
}

type memData struct {
	data  []byte
	mtime time.Time
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memData{}, dirs: map[string]bool{}}
}

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok:
		d = &memData{mtime: time.Now()}
		m.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.data = d.data[:0]
		d.mtime = time.Now()
	}
	return &memFile{fs: m, name: name, d: d, append: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if m.dirs[name] {
			delete(m.dirs, name)
			return nil
		}
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); p != "." && p != "/" && !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]fs.FileInfo{}
	prefix := name + string(filepath.Separator)
	for p, d := range m.files {
		if rest, ok := strings.CutPrefix(p, prefix); ok && !strings.ContainsRune(rest, filepath.Separator) {
			seen[rest] = memInfo{name: rest, size: int64(len(d.data)), mtime: d.mtime}
		}
	}
	for p := range m.dirs {
		if rest, ok := strings.CutPrefix(p, prefix); ok && !strings.ContainsRune(rest, filepath.Separator) {
			seen[rest] = memInfo{name: rest, dir: true}
		}
	}
	if len(seen) == 0 && !m.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]os.DirEntry, 0, len(seen))
	for _, fi := range seen {
		out = append(out, fs.FileInfoToDirEntry(fi))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(d.data)), mtime: d.mtime}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) Chtimes(name string, atime, mtime time.Time) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "chtimes", Path: name, Err: fs.ErrNotExist}
	}
	d.mtime = mtime
	return nil
}

// memFile is an open handle. Reads and writes go straight to the shared
// byte slice under the filesystem lock, so a reader sees every write
// made before it, as with a page-cache-backed file.
type memFile struct {
	fs     *memFS
	name   string
	d      *memData
	pos    int64
	append bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.pos >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.append {
		f.pos = int64(len(f.d.data))
	}
	if end := f.pos + int64(len(p)); end > int64(len(f.d.data)) {
		if end > int64(cap(f.d.data)) {
			grown := make([]byte, end, 2*end)
			copy(grown, f.d.data)
			f.d.data = grown
		}
		f.d.data = f.d.data[:end]
	}
	copy(f.d.data[f.pos:], p)
	f.pos += int64(len(p))
	f.d.mtime = time.Now()
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(f.d.data))
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: fs.ErrInvalid}
	}
	f.pos = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(f.d.data)) {
		f.d.data = f.d.data[:size]
	} else {
		f.d.data = append(f.d.data, make([]byte, size-int64(len(f.d.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

type memInfo struct {
	name  string
	size  int64
	mtime time.Time
	dir   bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mtime }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
