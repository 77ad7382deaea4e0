package splitfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// newTinyPoolEnv builds a U-Split whose staging pool exhausts quickly:
// 2 files of 64 KB each.
func newTinyPoolEnv(t testing.TB) *FS {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, Config{
		StagingFiles:      2,
		StagingFileBytes:  64 << 10,
		StagingChunkBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestReserveSurvivesExhaustion is the regression test for
// stagingPool.reserve: exhausting the pre-allocated pool must fall back
// to synchronous creation (counted in created), and reservations must
// keep succeeding throughout.
func TestReserveSurvivesExhaustion(t *testing.T) {
	fs := newTinyPoolEnv(t)
	p := fs.staging

	usageBefore := p.memoryUsage()

	// Burn through far more staging space than the pre-allocated pool
	// holds (2 x 64 KB): 20 exact 32 KB reservations = 640 KB.
	for i := 0; i < 20; i++ {
		c, err := p.reserve(32<<10, 0, true)
		if err != nil {
			t.Fatalf("reserve %d failed after exhaustion: %v", i, err)
		}
		if c.end-c.base < 32<<10 {
			t.Fatalf("reserve %d: short chunk [%d,%d)", i, c.base, c.end)
		}
	}
	created := fs.StagingFilesCreated()
	if created == 0 {
		t.Fatal("pool exhaustion never created a staging file synchronously")
	}
	// Used-up staging files keep their mappings and handles open; the
	// DRAM accounting must keep counting them after retirement.
	if got := p.memoryUsage(); got <= usageBefore {
		t.Fatalf("memoryUsage %d did not grow past %d despite retired files", got, usageBefore)
	}
}

// TestConcurrentReserve hammers the pool from many goroutines; every
// chunk handed out must be disjoint from every other.
func TestConcurrentReserve(t *testing.T) {
	fs := newTinyPoolEnv(t)
	p := fs.staging
	type span struct {
		file int
		base int64
		end  int64
	}
	var mu sync.Mutex
	var spans []span
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c, err := p.reserve(8<<10, 0, true)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				spans = append(spans, span{file: c.sf.id, base: c.base, end: c.end})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.file == b.file && a.base < b.end && b.base < a.end {
				t.Fatalf("overlapping reservations: file %d [%d,%d) vs [%d,%d)",
					a.file, a.base, a.end, b.base, b.end)
			}
		}
	}
}

// TestStagingMemoryUsageTracksFileSize guards the §5.10 accounting: the
// reported DRAM footprint is 128 B of bookkeeping per staging file plus
// 8 B of page table per page the mapping was granted, so it grows with
// the staging-file size at a given page size and shrinks 512-fold when
// huge pages are granted — the paper's 160 MB staging file costs 320 KB
// of page tables with 4 KB pages and 640 B with 2 MB pages.
func TestStagingMemoryUsageTracksFileSize(t *testing.T) {
	usage := func(fileBytes int64, disableHuge bool) int64 {
		dev := pmem.New(pmem.Config{Size: 512 << 20, Clock: sim.NewClock()})
		kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := New(kfs, Config{StagingFiles: 2, StagingFileBytes: fileBytes, DisableHugePages: disableHuge})
		if err != nil {
			t.Fatal(err)
		}
		return fs.staging.memoryUsage() / 2 // per file
	}
	const bookkeeping = 128
	for _, c := range []struct {
		fileBytes   int64
		disableHuge bool
		pageTable   int64
	}{
		{2 << 20, true, 512 * 8},
		{8 << 20, true, 2048 * 8},
		{2 << 20, false, 1 * 8},
		{8 << 20, false, 4 * 8},
		{1 << 20, false, 256 * 8}, // not a whole huge page: 4 KB pages
		{160 << 20, true, 320 << 10},
		{160 << 20, false, 640},
	} {
		if got := usage(c.fileBytes, c.disableHuge); got != bookkeeping+c.pageTable {
			t.Errorf("%d MB staging file, huge pages disabled = %v: %d B per file, want %d + %d",
				c.fileBytes>>20, c.disableHuge, got, bookkeeping, c.pageTable)
		}
	}
}

// TestConcurrentAppendersAndReaders drives the full U-Split data path
// from appenders and readers on distinct files at once (run with -race).
func TestConcurrentAppendersAndReaders(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	// Pre-build reader files through the kernel so reads exercise the
	// mmap path.
	want := bytes.Repeat([]byte("read-me!"), 4096) // 32 KB
	for r := 0; r < 4; r++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/r%d", r), want); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // appender
			defer wg.Done()
			f, err := fs.OpenFile(fmt.Sprintf("/w%d", g), vfs.O_RDWR|vfs.O_CREATE, 0644)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			chunk := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			for i := 0; i < 64; i++ {
				if _, err := f.Write(chunk); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 15 {
					if err := f.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) { // reader
			defer wg.Done()
			f, err := vfs.Open(fs, fmt.Sprintf("/r%d", g))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 4096)
			for i := 0; i < 64; i++ {
				off := int64(i*997) % int64(len(want)-4096)
				if _, err := f.ReadAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, want[off:off+4096]) {
					t.Errorf("reader %d: corruption at %d", g, off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < 4; g++ {
		got, err := vfs.ReadFile(fs, fmt.Sprintf("/w%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 64*4096 {
			t.Fatalf("appender %d: %d bytes, want %d", g, len(got), 64*4096)
		}
		for i, b := range got {
			if b != byte(g+1) {
				t.Fatalf("appender %d: wrong byte at %d", g, i)
			}
		}
	}
}
