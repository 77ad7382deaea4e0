package splitfs_test

import (
	"bytes"
	"testing"

	"splitfs"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestNewStackFacade pins the public facade cmd/splitperf builds every
// workload through. That module is not part of `go test ./...`, so this
// is what notices when the facade's defaults drift: a 256 MB
// wear-tracking device, the §3.6 U-Split sizing, every layer exposed,
// and Crash / Recover(mode) that bring fsynced and strict-mode data back.
func TestNewStackFacade(t *testing.T) {
	st, err := splitfs.NewStack(splitfs.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Device.Size() != 256<<20 {
		t.Errorf("default device = %d bytes, want 256 MB", st.Device.Size())
	}
	if st.FS.Mode() != splitfs.POSIX || st.FS.Name() != "splitfs-posix" {
		t.Errorf("default mode = %v (%s), want POSIX", st.FS.Mode(), st.FS.Name())
	}
	if st.KFS != st.FS.KFS() || st.Clock != st.Device.Clock() {
		t.Error("Stack fields do not expose the layers the FS runs on")
	}
	ents, err := st.KFS.ReadDir("/.splitfs-staging")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 10 {
		t.Errorf("%d staging files pre-allocated, want the default 10", len(ents))
	}
	for _, e := range ents {
		if fi, err := st.KFS.Stat("/.splitfs-staging/" + e.Name); err != nil || fi.Blocks != 4<<20/sim.BlockSize {
			t.Errorf("staging file %s: %d blocks, %v; want the default 4 MB", e.Name, fi.Blocks, err)
		}
	}
	if err := vfs.WriteFile(st.FS, "/w", []byte("wear")); err != nil {
		t.Fatal(err)
	}
	if st.Device.MaxWear() == 0 {
		t.Error("the facade's device does not track wear")
	}
	if err := st.Crash(1); err == nil {
		t.Error("Crash on a device built without TrackPersistence must fail")
	}

	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := splitfs.NewStack(splitfs.StackConfig{DeviceBytes: 64 << 20, Mode: mode, TrackPersistence: true})
			if err != nil {
				t.Fatal(err)
			}
			if st.Device.Size() != 64<<20 || st.FS.Mode() != mode {
				t.Fatalf("built %d bytes in %v", st.Device.Size(), st.FS.Mode())
			}
			synced := bytes.Repeat([]byte("fsynced "), 700)
			f, err := vfs.Create(st.FS, "/a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(synced); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			// Acknowledged but never fsynced: strict mode must keep it.
			if _, err := f.Write([]byte("acked")); err != nil {
				t.Fatal(err)
			}
			if err := st.Crash(0xBADC0FFEE); err != nil {
				t.Fatal(err)
			}
			rec, report, err := st.Recover(mode)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Device != st.Device || rec.Clock != st.Clock || rec.KFS != rec.FS.KFS() || rec.FS.Mode() != mode {
				t.Error("Recover did not return a fresh stack of the same mode over the same device")
			}
			if report == nil {
				t.Fatal("Recover returned no report")
			}
			got, err := vfs.ReadFile(rec.FS, "/a")
			if err != nil {
				t.Fatal(err)
			}
			want := synced
			if mode == splitfs.Strict {
				want = append(append([]byte(nil), synced...), "acked"...)
				if report.Replayed == 0 {
					t.Error("strict recovery replayed no log entry")
				}
			}
			if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
				t.Errorf("%d bytes back, want a %d-byte prefix intact", len(got), len(want))
			}
		})
	}
}
