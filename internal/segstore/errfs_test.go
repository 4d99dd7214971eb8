package segstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// errFS is the fault-injecting in-memory FS behind the sweep, degraded-mode,
// and power-cut tests. Every FS method and file Write/Sync/Close counts as
// one operation; a fault plan picks exactly the Nth operation and makes it
// fail with EIO, ENOSPC, a short write, or a power cut (after which every
// operation fails until a crash image is taken). Durability follows the FS
// contract precisely: File.Sync pins a file's durable prefix, SyncDir pins
// the directory's name→inode mapping, and crashImage reconstructs what a
// reboot would see — the last synced mapping, each file cut to its synced
// prefix plus a chosen fraction of its unsynced suffix (0 = strict, between
// = torn writes, 1 = a lucky crash that lost nothing unsynced).
//
// Deliberate simplifications, both on the adversarial side: the mapping is
// snapshotted whole (journalled filesystems order same-directory metadata, so
// one directory fsync publishing several entries at once matches ext4-like
// behaviour), and Truncate cuts the durable prefix immediately (the store
// only truncates to claw back unacknowledged WAL bytes; modelling their
// resurrection would re-test what the torn-write fraction already covers).

type faultKind int

const (
	fNone faultKind = iota
	fEIO
	fENOSPC
	fShort
	fPowerCut
)

var errPowerCut = errors.New("errfs: power cut")

// memFile is one inode: its bytes and the durable (fsync'd) prefix length.
type memFile struct {
	data   []byte
	synced int
}

type errFS struct {
	mu     sync.Mutex
	files  map[string]*memFile // live name → inode mapping
	synced map[string]*memFile // the mapping as of the last SyncDir
	ops    int
	kind   faultKind
	at     int  // the op index (since arm) the fault fires on
	cut    bool // power cut happened; everything fails
	sticky bool // persistent ENOSPC: every allocating op fails until cleared
}

func newErrFS() *errFS {
	return &errFS{files: map[string]*memFile{}, synced: map[string]*memFile{}}
}

// step counts one operation and decides its fate. writeSide marks operations
// that allocate space (and so fail under sticky ENOSPC); the single-shot
// fault plan hits whatever operation holds its index, read or write.
func (e *errFS) step(op string, writeSide bool) (short bool, err error) {
	if e.cut {
		return false, fmt.Errorf("errfs: %s: %w", op, errPowerCut)
	}
	n := e.ops
	e.ops++
	if e.sticky && writeSide {
		return false, fmt.Errorf("errfs: %s: %w", op, syscall.ENOSPC)
	}
	if e.kind != fNone && n == e.at {
		switch e.kind {
		case fEIO:
			return false, fmt.Errorf("errfs: injected %s: %w", op, syscall.EIO)
		case fENOSPC:
			return false, fmt.Errorf("errfs: injected %s: %w", op, syscall.ENOSPC)
		case fShort:
			if op == "write" {
				return true, nil
			}
			return false, fmt.Errorf("errfs: injected %s: %w", op, io.ErrShortWrite)
		case fPowerCut:
			e.cut = true
			return false, fmt.Errorf("errfs: %s: %w", op, errPowerCut)
		}
	}
	return false, nil
}

func (e *errFS) arm(kind faultKind, at int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kind, e.at, e.ops, e.cut = kind, at, 0, false
}

func (e *errFS) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kind, e.ops, e.cut, e.sticky = fNone, 0, false, false
}

func (e *errFS) setSticky(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sticky = on
}

func (e *errFS) opCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ops
}

func (e *errFS) cutHit() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cut
}

// crashImage clones the filesystem as a reboot would find it. frac is the
// fraction of each file's unsynced suffix that happened to reach the platter
// — 0 drops everything unsynced, fractions in between tear writes mid-record.
// The image itself is a fresh, fault-free errFS ready to Open against.
func (e *errFS) crashImage(frac float64) *errFS {
	e.mu.Lock()
	defer e.mu.Unlock()
	img := newErrFS()
	for name, mf := range e.synced {
		keep := mf.synced + int(frac*float64(len(mf.data)-mf.synced))
		data := append([]byte(nil), mf.data[:keep]...)
		img.files[name] = &memFile{data: data, synced: len(data)}
	}
	return img
}

func (e *errFS) MkdirAll(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.step("mkdir", true)
	return err
}

func (e *errFS) Stat(path string) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("stat", false); err != nil {
		return 0, err
	}
	mf, ok := e.files[path]
	if !ok {
		return 0, fmt.Errorf("errfs: stat %s: %w", path, fs.ErrNotExist)
	}
	return int64(len(mf.data)), nil
}

func (e *errFS) Create(path string) (File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("create", true); err != nil {
		return nil, err
	}
	mf := &memFile{}
	e.files[path] = mf
	return &errFile{fs: e, mf: mf}, nil
}

func (e *errFS) OpenAppend(path string) (File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("open", false); err != nil {
		return nil, err
	}
	mf, ok := e.files[path]
	if !ok {
		return nil, fmt.Errorf("errfs: open %s: %w", path, fs.ErrNotExist)
	}
	return &errFile{fs: e, mf: mf}, nil
}

func (e *errFS) ReadFile(path string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("read", false); err != nil {
		return nil, err
	}
	mf, ok := e.files[path]
	if !ok {
		return nil, fmt.Errorf("errfs: read %s: %w", path, fs.ErrNotExist)
	}
	return append([]byte(nil), mf.data...), nil
}

func (e *errFS) Rename(oldPath, newPath string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("rename", true); err != nil {
		return err
	}
	mf, ok := e.files[oldPath]
	if !ok {
		return fmt.Errorf("errfs: rename %s: %w", oldPath, fs.ErrNotExist)
	}
	e.files[newPath] = mf
	delete(e.files, oldPath)
	return nil
}

func (e *errFS) Remove(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("remove", false); err != nil {
		return err
	}
	if _, ok := e.files[path]; !ok {
		return fmt.Errorf("errfs: remove %s: %w", path, fs.ErrNotExist)
	}
	delete(e.files, path)
	return nil
}

func (e *errFS) ReadDir(dir string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("readdir", false); err != nil {
		return nil, err
	}
	var names []string
	for path := range e.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (e *errFS) Truncate(path string, size int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("truncate", false); err != nil {
		return err
	}
	mf, ok := e.files[path]
	if !ok {
		return fmt.Errorf("errfs: truncate %s: %w", path, fs.ErrNotExist)
	}
	if size < 0 || size > int64(len(mf.data)) {
		return fmt.Errorf("errfs: truncate %s to %d of %d", path, size, len(mf.data))
	}
	mf.data = mf.data[:size]
	if mf.synced > int(size) {
		mf.synced = int(size)
	}
	return nil
}

func (e *errFS) SyncDir(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.step("syncdir", false); err != nil {
		return err
	}
	e.synced = make(map[string]*memFile, len(e.files))
	for name, mf := range e.files {
		e.synced[name] = mf
	}
	return nil
}

// errFile is one open handle; writes append (Create starts empty, OpenAppend
// positions at the end, and the store never seeks).
type errFile struct {
	fs *errFS
	mf *memFile
}

func (f *errFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	short, err := f.fs.step("write", true)
	if err != nil {
		return 0, err
	}
	if short {
		n := len(p) / 2
		f.mf.data = append(f.mf.data, p[:n]...)
		return n, io.ErrShortWrite
	}
	f.mf.data = append(f.mf.data, p...)
	return len(p), nil
}

func (f *errFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.step("fsync", true); err != nil {
		return err
	}
	f.mf.synced = len(f.mf.data)
	return nil
}

func (f *errFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	_, err := f.fs.step("close", false)
	return err
}
