// Package durabletest provides CrashFS, an in-memory durable.FS that
// can crash at any operation: the crash-state model of ALICE (Pillai et
// al., "All File Systems Are Not Created Equal", OSDI 2014), reduced to
// the operations durable.FS has.
//
// CrashFS keeps two namespaces. The visible one is what a running
// process sees. The durable one is what survives a power loss: a
// directory's entries become durable only at SyncDir of that directory,
// and a file's bytes only at Sync of that file. A crash is a Restart in
// one of two modes — a process kill keeps everything visible (the page
// cache survives), a power loss keeps only the durable namespace, each
// file holding the bytes of its last Sync.
package durabletest

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/loloha-ldp/loloha/internal/durable"
)

// ErrCrashed is returned by the crashing operation and by every
// operation after it: the process is gone.
var ErrCrashed = errors.New("durabletest: crashed")

// Mode selects what a Restart keeps.
type Mode int

const (
	// PowerLoss keeps only the durable namespace and synced bytes.
	PowerLoss Mode = iota
	// ProcessKill keeps everything visible.
	ProcessKill
)

func (m Mode) String() string {
	if m == ProcessKill {
		return "process-kill"
	}
	return "power-loss"
}

// CrashFS is an in-memory durable.FS. The zero value is not usable; call
// New.
type CrashFS struct {
	mu      sync.Mutex
	visible map[string]*inode // path → file, as the process sees it
	durable map[string]*inode // path → file, as of its directory's last SyncDir
	ops     int
	crashAt int
	crashed bool
	temps   int // CreateTemp counter: deterministic temp names
}

// inode is one file's contents.
type inode struct {
	data   []byte // visible bytes
	synced []byte // bytes as of the last Sync
}

// New returns an empty CrashFS that never crashes until CrashAt.
func New() *CrashFS {
	return &CrashFS{visible: map[string]*inode{}, durable: map[string]*inode{}}
}

// CrashAt arms a crash: the n-th operation since New or Restart (1-based)
// fails with ErrCrashed without taking effect, and so does every later
// one. n ≤ 0 disarms.
func (c *CrashFS) CrashAt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashAt = n
}

// Ops returns the operations performed since New or Restart, the crashing
// one included.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether the armed crash has happened.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Restart returns the file system a new process finds after c crashed
// (or was simply abandoned) in the given mode. c itself stays dead.
func (c *CrashFS) Restart(mode Mode) *CrashFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
	next := New()
	for path, ino := range c.durable {
		next.durable[path] = ino
	}
	if mode == ProcessKill {
		for path, ino := range c.visible {
			next.visible[path] = ino
		}
		return next
	}
	// Power loss: every file reverts to its synced bytes, and only the
	// durable names exist.
	restored := map[*inode]*inode{}
	for path, ino := range c.durable {
		cp, ok := restored[ino]
		if !ok {
			cp = &inode{data: clone(ino.synced), synced: clone(ino.synced)}
			restored[ino] = cp
		}
		next.visible[path] = cp
		next.durable[path] = cp
	}
	return next
}

// do runs one operation: it counts it and, unless this is where the
// crash lands, applies it with c.mu held.
func (c *CrashFS) do(apply func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	c.ops++
	if c.ops == c.crashAt {
		c.crashed = true
		return ErrCrashed
	}
	return apply()
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// MkdirAll implements durable.FS. Directories are implicit.
func (c *CrashFS) MkdirAll(string) error {
	return c.do(func() error { return nil })
}

// CreateTemp implements durable.FS with deterministic names.
func (c *CrashFS) CreateTemp(dir, pattern string) (durable.File, error) {
	var f *memFile
	err := c.do(func() error {
		c.temps++
		name := pattern + fmt.Sprint(c.temps)
		if i := strings.LastIndex(pattern, "*"); i >= 0 {
			name = pattern[:i] + fmt.Sprint(c.temps) + pattern[i+1:]
		}
		f = &memFile{fs: c, path: filepath.Join(dir, name), ino: &inode{}}
		c.visible[f.path] = f.ino
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements durable.FS.
func (c *CrashFS) Rename(oldpath, newpath string) error {
	return c.do(func() error {
		ino, ok := c.visible[oldpath]
		if !ok {
			return notExist("rename", oldpath)
		}
		delete(c.visible, oldpath)
		c.visible[newpath] = ino
		return nil
	})
}

// SyncDir implements durable.FS: dir's visible entries become its
// durable entries.
func (c *CrashFS) SyncDir(dir string) error {
	return c.do(func() error {
		for path := range c.durable {
			if filepath.Dir(path) == dir {
				delete(c.durable, path)
			}
		}
		for path, ino := range c.visible {
			if filepath.Dir(path) == dir {
				c.durable[path] = ino
			}
		}
		return nil
	})
}

// Remove implements durable.FS.
func (c *CrashFS) Remove(name string) error {
	return c.do(func() error {
		if _, ok := c.visible[name]; !ok {
			return notExist("remove", name)
		}
		delete(c.visible, name)
		return nil
	})
}

// List implements durable.FS.
func (c *CrashFS) List(dir string) ([]string, error) {
	var names []string
	err := c.do(func() error {
		for path := range c.visible {
			if filepath.Dir(path) == dir {
				names = append(names, filepath.Base(path))
			}
		}
		sort.Strings(names)
		return nil
	})
	return names, err
}

// ReadFile implements durable.FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := c.do(func() error {
		ino, ok := c.visible[name]
		if !ok {
			return notExist("open", name)
		}
		data = clone(ino.data)
		return nil
	})
	return data, err
}

// memFile is an open CrashFS temp file. Write, Sync and Close each count
// as one operation.
type memFile struct {
	fs   *CrashFS
	path string
	ino  *inode
}

func (f *memFile) Name() string { return f.path }

func (f *memFile) Write(p []byte) (int, error) {
	err := f.fs.do(func() error {
		f.ino.data = append(f.ino.data, p...)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	return f.fs.do(func() error {
		f.ino.synced = clone(f.ino.data)
		return nil
	})
}

func (f *memFile) Close() error { return f.fs.do(func() error { return nil }) }

var _ durable.FS = (*CrashFS)(nil)
