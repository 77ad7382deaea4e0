package stack_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// errClass names an error by the vfs sentinel it wraps, so a served
// wrapper's decoded error compares equal to the direct one.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir,
		vfs.ErrNotEmpty, vfs.ErrNoSpace, vfs.ErrBadFD, vfs.ErrInval, vfs.ErrReadOnly, vfs.ErrClosed} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return "other: " + err.Error()
}

// accessSequences open one file through handles of different access
// modes, the weaker first, and record what each step returned. Every
// handle may do what its own mode allows, whatever the file's first
// opener asked for.
var accessSequences = []struct {
	name string
	run  func(t *testing.T, fs vfs.FileSystem, log func(string, error))
}{
	{"read-only, then truncate through O_RDWR", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		writeSynced(t, fs, "/a", bytes.Repeat([]byte{1}, 100))
		ro, err := fs.OpenFile("/a", vfs.O_RDONLY, 0)
		log("open ro", err)
		rw, err := fs.OpenFile("/a", vfs.O_RDWR, 0)
		log("open rw", err)
		if rw == nil || ro == nil {
			return
		}
		log("truncate", rw.Truncate(10))
		log("close rw", rw.Close())
		log("close ro", ro.Close())
		got, err := vfs.ReadFile(fs, "/a")
		log(fmt.Sprintf("reopen reads %d bytes", len(got)), err)
	}},
	{"write-only, then read a hole read-only", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		wo, err := fs.OpenFile("/b", vfs.O_WRONLY|vfs.O_CREATE, 0644)
		log("open wo", err)
		if wo == nil {
			return
		}
		_, err = wo.WriteAt(bytes.Repeat([]byte{2}, 100), 8192)
		log("write past a hole", err)
		log("sync", wo.Sync())
		ro, err := fs.OpenFile("/b", vfs.O_RDONLY, 0)
		log("open ro", err)
		if ro == nil {
			return
		}
		buf := bytes.Repeat([]byte{9}, 4096)
		n, err := ro.ReadAt(buf, 0)
		log(fmt.Sprintf("read hole: %d bytes, zero %v", n, bytes.Count(buf[:n], []byte{0}) == n), err)
		log("close ro", ro.Close())
		log("close wo", wo.Close())
	}},
	{"read-only, then append through O_RDWR|O_APPEND and sync", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		writeSynced(t, fs, "/c", bytes.Repeat([]byte{3}, 100))
		ro, err := fs.OpenFile("/c", vfs.O_RDONLY, 0)
		log("open ro", err)
		ap, err := fs.OpenFile("/c", vfs.O_RDWR|vfs.O_APPEND, 0)
		log("open append", err)
		if ro == nil || ap == nil {
			return
		}
		n, err := ap.Write(bytes.Repeat([]byte{4}, 5000))
		log(fmt.Sprintf("append %d bytes", n), err)
		log("sync", ap.Sync())
		log("close append", ap.Close())
		log("close ro", ro.Close())
		got, err := vfs.ReadFile(fs, "/c")
		log(fmt.Sprintf("reopen reads %d bytes", len(got)), err)
	}},
}

// TestAccessModesPerHandle runs each sequence on every kind, direct and
// served, and requires ext4-dax's results step for step. U-Split serves
// every handle on an inode through one kernel handle; that handle must
// not carry the first opener's access mode, or a later writable handle's
// truncate fails and its fsync drops the data it was asked to make
// durable.
func TestAccessModesPerHandle(t *testing.T) {
	transcript := func(t *testing.T, name string, run func(*testing.T, vfs.FileSystem, func(string, error))) string {
		st, err := stack.New(name, stack.Small)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		run(t, st.FS, func(step string, err error) { fmt.Fprintf(&sb, "%s: %s\n", step, errClass(err)) })
		return sb.String()
	}
	for _, seq := range accessSequences {
		t.Run(seq.name, func(t *testing.T) {
			want := transcript(t, "ext4-dax", seq.run)
			if strings.Contains(want, ": other") || strings.Count(want, ": ok") != strings.Count(want, "\n") {
				t.Fatalf("ext4-dax itself fails a step:\n%s", want)
			}
			for _, kind := range stack.Kinds() {
				for _, name := range []string{kind, stack.Name(kind, true, false)} {
					if got := transcript(t, name, seq.run); got != want {
						t.Errorf("%s:\n%swant (ext4-dax):\n%s", name, got, want)
					}
				}
			}
		})
	}
}
