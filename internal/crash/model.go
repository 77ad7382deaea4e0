package crash

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// The in-memory model mirrors the workload at syscall granularity and
// derives, for a crash at any point, the set of durable states the
// stack's row of Table 3 allows (stack.GuaranteeOf; each cell's rule is
// in DESIGN.md, "Crash oracles per Table 3 cell").
//
// Data-byte durability is tracked per byte with a small class lattice:
//
//	clean      byte equals the last-fsynced content
//	eitherOr   single in-place POSIX overwrite: old or new value (torn
//	           words are whole, so each byte is one or the other)
//	durable    completed in-place overwrite under sync data: the new value
//	dirty      anything goes (staged, rewritten, or mid-operation)
type byteClass = byte

const (
	clsClean byteClass = iota
	clsEither
	clsDurable
	clsDirty
)

// span is a half-open file range.
type span struct{ off, end int64 }

// mfile is an immutable snapshot of one file identity after a syscall.
type mfile struct {
	id         int
	data       []byte // logical content
	cls        []byte // per-byte durability class, len == len(data)
	synced     []byte // content at the last durability point
	everSynced bool
	ksize      int64  // kernel-visible (relinked) size
	staged     []span // staged ranges not yet relinked
}

// mstate is the model state after a syscall prefix.
type mstate struct {
	files map[string]*mfile
	dirs  map[string]bool
	// commitFloor is the syscall index of the last operation that is
	// guaranteed to have committed the running journal transaction (any
	// relink: fsync/close with staged data, truncate, rename flush).
	// Without sync metadata the durable namespace can never be older
	// than this.
	commitFloor int
}

// modelRun is the model evaluated over a whole syscall sequence.
type modelRun struct {
	g      stack.Guarantee
	sys    []syscall
	states []*mstate        // states[i] = after syscall i; states[0] = empty
	ids    []map[int]*mfile // per-state identity table (retains dead ids)
}

func cloneState(s *mstate) *mstate {
	return &mstate{files: maps.Clone(s.files), dirs: maps.Clone(s.dirs), commitFloor: s.commitFloor}
}

// mutate returns a private copy of f ready for modification.
func (f *mfile) mutate() *mfile {
	nf := *f
	nf.data = append([]byte(nil), f.data...)
	nf.cls = append([]byte(nil), f.cls...)
	nf.staged = append([]span(nil), f.staged...)
	return &nf
}

func overlapsSpans(spans []span, off, end int64) bool {
	for _, s := range spans {
		if s.off < end && off < s.end {
			return true
		}
	}
	return false
}

// buildModel evaluates the syscall sequence under row g and snapshots
// the state after every syscall.
func buildModel(g stack.Guarantee, sys []syscall) *modelRun {
	m := &modelRun{g: g, sys: sys}
	cur := &mstate{files: map[string]*mfile{}, dirs: map[string]bool{}}
	curIDs := map[int]*mfile{}
	m.states = append(m.states, cur)
	m.ids = append(m.ids, curIDs)
	nextID := 1

	// relinked applies the durability point a relink (fsync/close with
	// staged data, truncate, rename flush) creates: staged data becomes
	// durable in place and the journal transaction commits. The commit
	// happens inside syscall sysIdx, before the syscall's own namespace
	// mutation (a rename's flush precedes the rename), so the namespace
	// floor it establishes is the state before the syscall.
	relinked := func(st *mstate, ids map[int]*mfile, f *mfile, sysIdx int) *mfile {
		f = f.mutate()
		f.staged = nil
		f.ksize = int64(len(f.data))
		f.synced = append([]byte(nil), f.data...)
		f.everSynced = true
		for i := range f.cls {
			f.cls[i] = clsClean
		}
		if sysIdx-1 > st.commitFloor {
			st.commitFloor = sysIdx - 1
		}
		ids[f.id] = f
		return f
	}

	for i, sc := range sys {
		st := cloneState(cur)
		ids := maps.Clone(curIDs)
		sysIdx := i + 1
		switch sc.kind {
		case sysOpen:
			if _, ok := st.files[sc.path]; !ok {
				f := &mfile{id: nextID}
				nextID++
				st.files[sc.path] = f
				ids[f.id] = f
			}
		case sysWrite:
			f, ok := st.files[sc.path]
			if !ok { // cannot happen: compile emits the open first
				f = &mfile{id: nextID}
				nextID++
			}
			f = f.mutate()
			off := sc.off
			if off < 0 {
				off = int64(len(f.data))
			}
			end := off + int64(len(sc.data))
			for int64(len(f.data)) < end {
				f.data = append(f.data, 0)
				f.cls = append(f.cls, clsDirty)
			}
			copy(f.data[off:end], sc.data)
			staged := g.AtomicData || end > f.ksize || overlapsSpans(f.staged, off, end)
			if staged {
				f.staged = append(f.staged, span{off, end})
				for i := off; i < end; i++ {
					// Bytes below ksize shadowed by a staged overwrite
					// keep their class — the media under them is untouched
					// until the relink — unless the class names data[i],
					// which now holds the staged value: what an earlier
					// in-place overwrite left on the media is no longer on
					// record (TestStagedWriteOverInPlaceOverwrite).
					if i >= f.ksize || f.cls[i] == clsEither || f.cls[i] == clsDurable {
						f.cls[i] = clsDirty
					}
				}
			} else {
				for i := off; i < end; i++ {
					if g.SyncData {
						f.cls[i] = clsDurable // fenced before return
					} else if f.cls[i] == clsClean {
						f.cls[i] = clsEither
					} else {
						f.cls[i] = clsDirty
					}
				}
			}
			st.files[sc.path] = f
			ids[f.id] = f
			if staged && g.SyncData && !g.AppendsAtRelink {
				// Sync data with no deviation: a staged write is as
				// durable when it returns as a relink would make it.
				st.files[sc.path] = relinked(st, ids, f, sysIdx)
			}
		case sysFsync:
			if f, ok := st.files[sc.path]; ok {
				// fsync is always a durability point: staged data relinks
				// (or, with nothing staged, a fence drains outstanding
				// stores), and the journal transaction commits either way.
				st.files[sc.path] = relinked(st, ids, f, sysIdx)
			}
		case sysClose:
			if f, ok := st.files[sc.path]; ok && len(f.staged) > 0 {
				st.files[sc.path] = relinked(st, ids, f, sysIdx)
			}
		case sysUnlink:
			delete(st.files, sc.path) // identity stays in ids
		case sysRename:
			if st.dirs[sc.path] { // a directory: the generators move empty ones only
				delete(st.dirs, sc.path)
				st.dirs[sc.path2] = true
			}
			src, ok := st.files[sc.path]
			if ok {
				if len(src.staged) > 0 {
					src = relinked(st, ids, src, sysIdx)
				}
				if dst, ok2 := st.files[sc.path2]; ok2 && len(dst.staged) > 0 {
					relinked(st, ids, dst, sysIdx)
				}
				delete(st.files, sc.path)
				st.files[sc.path2] = src
			}
		case sysTruncate:
			if f, ok := st.files[sc.path]; ok {
				if len(f.staged) > 0 {
					f = relinked(st, ids, f, sysIdx)
				}
				f = f.mutate()
				if sc.size < int64(len(f.data)) {
					f.data = f.data[:sc.size]
					f.cls = f.cls[:sc.size]
				} else {
					for int64(len(f.data)) < sc.size {
						f.data = append(f.data, 0)
						f.cls = append(f.cls, clsDirty)
					}
				}
				if int64(len(f.synced)) > sc.size {
					f.synced = f.synced[:sc.size]
				}
				// U-Split resets the kernel-visible size in both
				// directions: later writes below it go in place.
				f.ksize = sc.size
				st.files[sc.path] = f
				ids[f.id] = f
			}
		case sysMkdir:
			st.dirs[sc.path] = true
		case sysSyncall:
			// Group sync: every file with staged data relinks, all batches
			// sharing one journal commit. Files without staged data only
			// gain fence-level durability, which the model conservatively
			// does not credit (fewer clean bytes = weaker assertions, never
			// false violations). Iterate in sorted path order so model
			// construction is deterministic.
			var paths []string
			for p, f := range st.files {
				if len(f.staged) > 0 {
					paths = append(paths, p)
				}
			}
			sort.Strings(paths)
			for _, p := range paths {
				st.files[p] = relinked(st, ids, st.files[p], sysIdx)
			}
		}
		m.states = append(m.states, st)
		m.ids = append(m.ids, ids)
		cur, curIDs = st, ids
	}
	return m
}

// ---------------------------------------------------------------------
// Durable-state capture and the per-row oracle checks.

// durableState is what the recovered file system actually contains.
type durableState struct {
	files map[string][]byte
	dirs  map[string]bool
}

// captureDurable walks the recovered file system. Unreadable files are
// reported as violations by returning an error.
func captureDurable(fs vfs.FileSystem) (*durableState, error) {
	return captureSubtree(fs, "/")
}

// captureSubtree walks the subtree at root ("/" = everything), returning
// paths relative to root — so per-tenant models, built on root-relative
// workloads matching the session confinement the tenants attach with,
// compare directly.
func captureSubtree(fs vfs.FileSystem, root string) (*durableState, error) {
	d := &durableState{files: map[string][]byte{}, dirs: map[string]bool{}}
	prefix := strings.TrimSuffix(root, "/")
	var walk func(dir string, depth int) error
	walk = func(dir string, depth int) error {
		// A corrupt recovered image can contain a directory cycle (found
		// by the served fence-fault self-test); an unbounded walk would
		// hang the sweep instead of reporting the corruption.
		if depth > maxWalkDepth {
			return fmt.Errorf("walk of %.80s... exceeds depth %d: directory cycle in recovered image",
				dir, maxWalkDepth)
		}
		ents, err := fs.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			rel := strings.TrimPrefix(p, prefix)
			if e.IsDir {
				d.dirs[rel] = true
				if err := walk(p, depth+1); err != nil {
					return err
				}
				continue
			}
			data, err := vfs.ReadFile(fs, p)
			if err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
			d.files[rel] = data
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// maxWalkDepth bounds durable-state capture walks. Workloads nest a
// handful of directories at most; anything deeper is a cycle stitched
// together by a corrupt image, not legitimate state.
const maxWalkDepth = 64

// dirtyOverlay returns, per identity, the spans the in-progress syscall
// may have been mutating on media when the crash hit (its own write
// range, plus every staged range and the not-yet-relinked tail for
// relink-performing syscalls). Bytes inside the overlay are exempt from
// content checks in the sync and POSIX oracles.
func dirtyOverlay(m *modelRun, c int) map[int][]span {
	out := map[int][]span{}
	if c >= len(m.sys) {
		return out
	}
	sc := m.sys[c] // the interrupted syscall (1-based index c+1)
	st := m.states[c]
	add := func(path string, spans ...span) {
		f, ok := st.files[path]
		if !ok {
			return
		}
		all := append(append([]span(nil), f.staged...), spans...)
		all = append(all, span{f.ksize, 1 << 62})
		out[f.id] = all
	}
	switch sc.kind {
	case sysWrite:
		off := sc.off
		if f, ok := st.files[sc.path]; ok && off < 0 {
			off = int64(len(f.data))
		}
		if off < 0 {
			off = 0
		}
		add(sc.path, span{off, off + int64(len(sc.data))})
	case sysFsync, sysClose, sysTruncate:
		add(sc.path)
	case sysRename:
		add(sc.path)
		add(sc.path2)
	case sysSyncall:
		// The interrupted group sync may have been relinking any file
		// with staged data.
		for p, f := range st.files {
			if len(f.staged) > 0 {
				add(p)
			}
		}
	}
	return out
}

// checkGuarantee verifies the recovered state against the model's row.
// c is the number of completed syscalls; if interrupted is true the crash
// hit inside syscall c+1 (event-level crash), otherwise it fell exactly
// on the boundary after syscall c.
func checkGuarantee(m *modelRun, c int, interrupted bool, dur *durableState) string {
	// With sync metadata every completed syscall's namespace effect is
	// durable; without, the namespace may be any syscall prefix no older
	// than the last guaranteed commit. Either way the interrupted syscall
	// may have taken effect.
	first := c
	if !m.g.SyncMeta {
		first = m.states[c].commitFloor
	}
	var candidates []int
	for j := first; j <= c; j++ {
		candidates = append(candidates, j)
	}
	if interrupted && c+1 <= len(m.sys) {
		candidates = append(candidates, c+1)
	}
	if m.g.AtomicData { // every row with it has sync data and metadata too
		var why string
		for _, j := range candidates {
			if why = matchExact(m.states[j], dur); why == "" {
				return ""
			}
		}
		at := describeCrashPoint(m, c, interrupted)
		return fmt.Sprintf("%s: durable state is neither pre- nor post-%s: %s", m.g.Kind, at, why)
	}
	overlay := map[int][]span{}
	if interrupted {
		overlay = dirtyOverlay(m, c)
	}
	var lastWhy string
	for _, j := range candidates {
		if why := matchNamespace(m.states[j], dur); why != "" {
			lastWhy = why
			continue
		}
		if why := matchContent(m, j, c, interrupted, overlay, dur); why != "" {
			lastWhy = why
			continue
		}
		return ""
	}
	at := describeCrashPoint(m, c, interrupted)
	return fmt.Sprintf("%s: no acceptable state matches at %s: %s", m.g.Kind, at, lastWhy)
}

func describeCrashPoint(m *modelRun, c int, interrupted bool) string {
	if interrupted && c < len(m.sys) {
		sc := m.sys[c]
		return fmt.Sprintf("op %d (%s %s)", sc.opIdx, sc.kind, sc.path)
	}
	return fmt.Sprintf("syscall boundary %d", c)
}

// matchExact requires byte-identical namespace and contents (strict).
func matchExact(st *mstate, dur *durableState) string {
	if why := matchNamespace(st, dur); why != "" {
		return why
	}
	for p, f := range st.files {
		got := dur.files[p]
		if !bytes.Equal(got, f.data) {
			return fmt.Sprintf("%s diverged at byte %d (len got %d want %d)",
				p, firstDiff(got, f.data), len(got), len(f.data))
		}
	}
	return ""
}

// matchNamespace requires the durable path sets (files and directories)
// to equal the model state's.
func matchNamespace(st *mstate, dur *durableState) string {
	if len(dur.files) != len(st.files) || len(dur.dirs) != len(st.dirs) {
		return fmt.Sprintf("namespace shape: %d files/%d dirs durable (%s / %s), want %d/%d (%s / %s)",
			len(dur.files), len(dur.dirs), pathList(dur.files), pathList(dur.dirs),
			len(st.files), len(st.dirs), pathList(st.files), pathList(st.dirs))
	}
	for p := range st.files {
		if _, ok := dur.files[p]; !ok {
			return fmt.Sprintf("file %s missing", p)
		}
	}
	for p := range st.dirs {
		if !dur.dirs[p] {
			return fmt.Sprintf("directory %s missing", p)
		}
	}
	return ""
}

// pathList renders a path set compactly for namespace-mismatch messages.
func pathList[V any](m map[string]V) string {
	if len(m) == 0 {
		return "∅"
	}
	paths := slices.Sorted(maps.Keys(m))
	if len(paths) > 8 {
		paths = append(paths[:8], "…")
	}
	return strings.Join(paths, " ")
}

// matchContent checks every durable file's bytes against the sync/POSIX
// durability classes. Path-to-identity binding comes from the candidate
// state j; durability facts (synced content, classes) come from the
// crash-time identity table (state c) — data durability evolves
// independently of the namespace. When the crash interrupted syscall
// c+1, the post-syscall record is allowed too: the interrupted syscall's
// durability effect (say, a truncate's size change) may have committed.
func matchContent(m *modelRun, j, c int, interrupted bool, overlay map[int][]span, dur *durableState) string {
	for p, bound := range m.states[j].files {
		got := dur.files[p]
		recs := make([]*mfile, 0, 2)
		if rec, ok := m.ids[c][bound.id]; ok {
			recs = append(recs, rec)
		}
		if interrupted && c+1 < len(m.ids) {
			if rec, ok := m.ids[c+1][bound.id]; ok {
				recs = append(recs, rec)
			}
		}
		var why string
		okAny := len(recs) == 0 // identity born in the interrupted syscall: no constraints yet
		for _, rec := range recs {
			if why = contentAgainst(p, got, rec, overlay[bound.id]); why == "" {
				okAny = true
				break
			}
		}
		if !okAny {
			return why
		}
	}
	return ""
}

// contentAgainst verifies one file's durable bytes against one identity
// record; overlay spans are exempt (the interrupted syscall was mutating
// them).
func contentAgainst(p string, got []byte, rec *mfile, dirty []span) string {
	if !rec.everSynced {
		return ""
	}
	n := int64(len(rec.synced))
	if int64(len(got)) < n {
		return fmt.Sprintf("%s truncated below synced length: %d < %d",
			p, len(got), len(rec.synced))
	}
	dirty = slices.SortedFunc(slices.Values(dirty), func(a, b span) int { return cmp.Compare(a.off, b.off) })
	lo := int64(0)
	for _, d := range append(dirty, span{n, n}) {
		if why := segmentAgainst(p, got, rec, lo, min(d.off, n)); why != "" {
			return why
		}
		lo = max(lo, d.end)
	}
	return ""
}

// segmentAgainst verifies the durable bytes [lo, hi) of a file, none of
// them exempt, against one identity record. A segment that equals the
// synced bytes and holds no byte that must be durable, or equals the data
// and holds no byte that must be clean, passes whole; any other is
// checked byte by byte, so a failure names its first byte.
func segmentAgainst(p string, got []byte, rec *mfile, lo, hi int64) string {
	if lo >= hi {
		return ""
	}
	g, cls := got[lo:hi], rec.cls[lo:hi]
	if bytes.Equal(g, rec.synced[lo:hi]) && bytes.IndexByte(cls, clsDurable) < 0 ||
		bytes.Equal(g, rec.data[lo:hi]) && bytes.IndexByte(cls, clsClean) < 0 {
		return ""
	}
	for i := lo; i < hi; i++ {
		synced, data := got[i] == rec.synced[i], got[i] == rec.data[i]
		if c := rec.cls[i]; c == clsClean && !synced || c == clsEither && !synced && !data || c == clsDurable && !data {
			return fmt.Sprintf("%s byte %d (class %d) is neither synced nor durable value",
				p, i, rec.cls[i])
		}
	}
	return ""
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
