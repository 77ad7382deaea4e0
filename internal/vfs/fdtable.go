package vfs

import (
	"sort"
	"sync"
)

// FDTable maps small integer descriptors to open files with POSIX dup
// semantics: Dup returns a new descriptor sharing the same open file
// description (and therefore the same offset — the behaviour the paper
// calls out in "Handling dup", §3.5). The underlying File is closed only
// when its last descriptor is closed.
type FDTable struct {
	mu   sync.Mutex
	next int
	fds  map[int]*description
}

// description is an open file description: one per Insert, shared by
// the descriptors Dup makes of it.
type description struct {
	file File
	refs int // descriptors naming it
}

// NewFDTable returns an empty table. Descriptors start at 3, leaving room
// for the conventional stdio numbers.
func NewFDTable() *FDTable {
	return &FDTable{next: 3, fds: make(map[int]*description)}
}

// Insert registers an open file and returns its descriptor.
func (t *FDTable) Insert(f File) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd := t.next
	t.next++
	t.fds[fd] = &description{file: f, refs: 1}
	return fd
}

// InsertAt registers an open file at a caller-chosen descriptor — the
// session re-attach path, where a reconnecting client re-establishes its
// handles under their original wire IDs so the replay log's handle
// references stay valid. ErrExist if the descriptor is live. The next
// auto-assigned descriptor always jumps past fd, so later Inserts cannot
// collide with re-established handles.
func (t *FDTable) InsertAt(fd int, f File) error {
	if fd < 0 {
		return ErrInval
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.fds[fd]; ok {
		return ErrExist
	}
	if fd >= t.next {
		t.next = fd + 1
	}
	t.fds[fd] = &description{file: f, refs: 1}
	return nil
}

// Get resolves a descriptor.
func (t *FDTable) Get(fd int) (File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return e.file, nil
}

// Dup duplicates a descriptor; both descriptors share one offset.
func (t *FDTable) Dup(fd int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.fds[fd]
	if !ok {
		return -1, ErrBadFD
	}
	nfd := t.next
	t.next++
	e.refs++
	t.fds[nfd] = e
	return nfd, nil
}

// Close releases a descriptor, closing the file when no descriptors
// remain.
func (t *FDTable) Close(fd int) error {
	f, err := t.Release(fd)
	if f == nil {
		return err
	}
	return f.Close()
}

// Release drops a descriptor without closing its file. When that was the
// file's last descriptor it returns the file, whose close is then the
// caller's; while a dup remains it returns nil.
func (t *FDTable) Release(fd int) (File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	delete(t.fds, fd)
	if e.refs--; e.refs > 0 {
		return nil, nil
	}
	return e.file, nil
}

// CloseAll releases every descriptor, closing each distinct open file
// exactly once (dup'd descriptors share one close). It is idempotent —
// a second call on an emptied table is a no-op — which is what session
// teardown in internal/server relies on when a client disconnects
// mid-operation. The first close error is returned; all files are
// closed regardless.
func (t *FDTable) CloseAll() error {
	t.mu.Lock()
	var files []File
	for fd, e := range t.fds {
		delete(t.fds, fd)
		if e.refs--; e.refs == 0 {
			files = append(files, e.file)
		}
	}
	t.mu.Unlock()
	// Close in path order so teardown issues a deterministic operation
	// sequence (the crash harness replays rely on bit-identical streams).
	sort.Slice(files, func(i, j int) bool { return files[i].Path() < files[j].Path() })
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len reports the number of live descriptors.
func (t *FDTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.fds)
}

// Files returns the distinct open files, for snapshot/restore (the
// execve analogue, §3.5).
func (t *FDTable) Files() []File {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Walk descriptors in sorted order so the returned slice (and any
	// close/snapshot work driven by it) is deterministic.
	nums := make([]int, 0, len(t.fds))
	for fd := range t.fds {
		nums = append(nums, fd)
	}
	sort.Ints(nums)
	seen := make(map[File]bool)
	var out []File
	for _, fd := range nums {
		e := t.fds[fd]
		if !seen[e.file] {
			seen[e.file] = true
			out = append(out, e.file)
		}
	}
	return out
}
