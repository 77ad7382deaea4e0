package crash

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"

	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// The differential backend-equivalence suite: one generated syscall
// trace (the same generators the crash campaigns use) is fed through
// every file system in the repository via the vfs interface, and the
// final namespace plus file contents must be identical everywhere. The
// crash oracles verify SplitFS against a model of itself; this suite
// verifies the model-independent claim — §3.1's transparency property —
// that all backends implement the same POSIX-visible semantics, using
// the eight backends as each other's oracle. Its tests add the host
// kernel's own file system beside them as an outside reference.

// DiffMismatch is one divergence from the reference backend.
type DiffMismatch struct {
	Backend string
	Path    string
	Why     string
}

func (m DiffMismatch) String() string {
	return fmt.Sprintf("%s: %s: %s", m.Backend, m.Path, m.Why)
}

// DiffResult reports one differential run.
type DiffResult struct {
	Reference  string // backend the others are compared against
	Backends   []string
	Syscalls   int
	Trace      string // canonical trace rendering (seed-stability golden)
	Mismatches []DiffMismatch
}

// renderTrace produces the canonical, human-readable form of a compiled
// trace; the seed-stability golden pins its hash so generator drift is
// caught explicitly.
func renderTrace(sys []syscall) string {
	var sb strings.Builder
	for i, sc := range sys {
		fmt.Fprintf(&sb, "%d %s %s %s off=%d size=%d len=%d\n",
			i, sc.kind, sc.path, sc.path2, sc.off, sc.size, len(sc.data))
	}
	return sb.String()
}

// Differential feeds ops through every listed kind of stack (reference
// first) and compares final states against the first one's — all eight
// direct kinds, or e.g. direct ext4-dax against every served: wrapper,
// which is how the service layer's transparency is verified: the same
// trace through the session/RPC stack must land byte-identically.
func Differential(kinds []string, ops []Op) (*DiffResult, error) {
	return differential(kinds, ops, newStack)
}

// differential is Differential over the stacks open builds, one per
// listed name; it drives each one's FS. Differential builds them as a
// crash campaign builds its stack.
func differential(kinds []string, ops []Op, open func(kind string) (*stack.Stack, error)) (*DiffResult, error) {
	sys := compile(ops)
	res := &DiffResult{
		Reference: kinds[0],
		Backends:  append([]string(nil), kinds...),
		Syscalls:  len(sys),
		Trace:     renderTrace(sys),
	}
	states := make(map[string]*durableState, len(kinds))
	for _, kind := range kinds {
		st, err := open(kind)
		if err != nil {
			return nil, fmt.Errorf("diff backend %s: %w", kind, err)
		}
		r := &runner{fs: st.FS, handles: map[string]vfs.File{}}
		for i, sc := range sys {
			if err := r.apply(sc); err != nil {
				return nil, fmt.Errorf("diff backend %s: syscall %d (%v %s): %w",
					kind, i, sc.kind, sc.path, err)
			}
		}
		// Close every live handle so close-time relinks/digests run and
		// the captured state is the settled one (orphan handles stay open:
		// their unlinked inodes must NOT reappear in any namespace).
		for _, p := range slices.Sorted(maps.Keys(r.handles)) {
			if err := r.handles[p].Close(); err != nil {
				return nil, fmt.Errorf("diff backend %s: close %s: %w", kind, p, err)
			}
		}
		states[kind], err = captureDurable(st.FS)
		if err != nil {
			return nil, fmt.Errorf("diff backend %s: capture: %w", kind, err)
		}
	}
	ref := states[res.Reference]
	for _, kind := range kinds[1:] {
		res.Mismatches = append(res.Mismatches, diffStates(kind, ref, states[kind])...)
	}
	return res, nil
}

// diffStates compares one backend's final state against the reference.
func diffStates(kind string, ref, got *durableState) []DiffMismatch {
	var out []DiffMismatch
	add := func(path, why string) {
		out = append(out, DiffMismatch{Backend: kind, Path: path, Why: why})
	}
	for _, p := range slices.Sorted(maps.Keys(ref.files)) {
		g, ok := got.files[p]
		if !ok {
			add(p, "file missing")
			continue
		}
		w := ref.files[p]
		if !bytes.Equal(g, w) {
			add(p, fmt.Sprintf("content diverges at byte %d (len got %d want %d)",
				firstDiff(g, w), len(g), len(w)))
		}
	}
	for _, p := range slices.Sorted(maps.Keys(got.files)) {
		if _, ok := ref.files[p]; !ok {
			add(p, "unexpected file")
		}
	}
	for p := range ref.dirs {
		if !got.dirs[p] {
			add(p, "directory missing")
		}
	}
	for p := range got.dirs {
		if !ref.dirs[p] {
			add(p, "unexpected directory")
		}
	}
	return out
}
