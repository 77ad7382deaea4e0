package sim

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockChargeAccumulates(t *testing.T) {
	c := NewClock()
	c.Charge(KernelTrap)
	c.ChargeN(PageFault4K, 2)
	c.ChargeAs(PMStoreNT, CatPMData, 64)
	want := KernelTrap.Fixed + PageFault4K.Cost(2) + PMStoreNT.Cost(64)
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %d, want %d", got, want)
	}
	b := c.Snapshot()
	if got := b.ByCat[CatPageFault]; got != PageFault4K.Cost(2) {
		t.Fatalf("ByCat[CatPageFault] = %d, want %d", got, PageFault4K.Cost(2))
	}
	if got := b.ByCat[CatPMData]; got != PMStoreNT.Cost(64) {
		t.Fatalf("ByCat[CatPMData] = %d, want %d", got, PMStoreNT.Cost(64))
	}
}

func TestClockIgnoresNonPositive(t *testing.T) {
	c := NewClock()
	c.ChargeAs(PMFlush, CatCPU, 0)
	c.ChargeN(DRAMCopy, 0)
	if c.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", c.Now())
	}
}

func TestClockSnapshotSub(t *testing.T) {
	c := NewClock()
	c.ChargeAs(PMStore, CatPMData, 4000)
	before := c.Snapshot()
	c.ChargeAs(PMStore, CatPMData, 1000)
	c.Charge(Ext4JournalHandle)
	d := c.Snapshot().Sub(before)
	if d.Total != 10+Ext4JournalHandle.Fixed {
		t.Fatalf("delta total = %d, want %d", d.Total, 10+Ext4JournalHandle.Fixed)
	}
	if d.DataTime() != 10 {
		t.Fatalf("delta data = %d, want 10", d.DataTime())
	}
	if d.Overhead() != Ext4JournalHandle.Fixed {
		t.Fatalf("delta overhead = %d, want %d", d.Overhead(), Ext4JournalHandle.Fixed)
	}
}

func TestClockConcurrentCharges(t *testing.T) {
	c := NewClock()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Charge(PMFence)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), goroutines*per*PMFence.Fixed; got != want {
		t.Fatalf("Now() = %d, want %d", got, want)
	}
}

// TestLedgerBooksEveryRow charges each row once, an OpenRow once to each
// category, and reads every charge back from the ledger: its row, its
// category and its nanoseconds, summing to the clock's total.
func TestLedgerBooksEveryRow(t *testing.T) {
	c := NewClock()
	var want []Entry
	names := map[string]bool{}
	for _, r := range Rows() {
		if names[r.Name] {
			t.Errorf("two rows named %s", r.Name)
		}
		names[r.Name] = true
		if r.Cat != catOpen {
			c.ChargeN(r, 3)
			want = append(want, Entry{r, r.Cat, r.Cost(3)})
			continue
		}
		for _, cat := range Categories() {
			c.ChargeAs(OpenRow{r}, cat, int64(cat)+1)
			want = append(want, Entry{r, cat, r.Cost(int64(cat) + 1)})
		}
	}
	l := c.Ledger()
	got := l.Entries()
	if !slices.Equal(got, want) {
		t.Fatalf("ledger entries differ:\n got %v\nwant %v", got, want)
	}
	var sum int64
	var byCat [numCategories]int64
	for _, e := range got {
		sum += e.Ns
		byCat[e.Cat] += e.Ns
	}
	if sum != l.Total || c.Snapshot().ByCat != byCat {
		t.Fatalf("entries sum to %d by category %v; clock total %d by category %v", sum, byCat, l.Total, c.Snapshot().ByCat)
	}
	if d := c.Ledger().Sub(l); d.Total != 0 || len(d.Entries()) != 0 {
		t.Fatalf("a ledger minus itself is %v", d)
	}
}

func TestChargeAsRefusesAnUnknownCategory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChargeAs(numCategories) did not panic")
		}
	}()
	NewClock().ChargeAs(PMStore, numCategories, 1)
}

func TestCategoryString(t *testing.T) {
	if CatPMData.String() != "pm-data" {
		t.Fatalf("CatPMData = %q", CatPMData.String())
	}
	if Category(99).String() != "Category(99)" {
		t.Fatalf("unknown category = %q", Category(99).String())
	}
	if len(Categories()) != int(numCategories) {
		t.Fatalf("Categories() length = %d", len(Categories()))
	}
}

func TestBreakdownString(t *testing.T) {
	c := NewClock()
	c.ChargeAs(PMStore, CatPMData, 700)
	s := c.Snapshot().String()
	if s != "7ns [pm-data=7]" {
		t.Fatalf("String() = %q", s)
	}
}

func TestRowCost(t *testing.T) {
	cases := []struct {
		r    Row
		n    int64
		want int64
	}{
		{Row{PsPerUnit: 100}, 0, 0},
		{Row{PsPerUnit: 100}, -1, 0},
		{Row{PsPerUnit: 100}, 1, 1},  // rounds up
		{Row{PsPerUnit: 100}, 10, 1}, // exactly 1ns
		{Row{PsPerUnit: 100}, 11, 2}, // rounds up
		{Row{Fixed: 55, PsPerUnit: 144}, 4096, 55 + 590},
		{Row{Fixed: 169, PsPerUnit: 25}, 64, 169 + 2},
		{Row{PsPerUnit: 60e3}, 3, 180},
		{Row{Fixed: 7, PsPerUnit: 2200e3}, 2, 4407},
	}
	for _, tc := range cases {
		if got := tc.r.Cost(tc.n); got != tc.want {
			t.Errorf("%+v.Cost(%d) = %d, want %d", tc.r, tc.n, got, tc.want)
		}
	}
}

func TestByteCostNeverFreeProperty(t *testing.T) {
	f := func(n uint16, ps uint8) bool {
		r := Row{PsPerUnit: int64(ps)}
		got := r.Cost(int64(n))
		if n == 0 || ps == 0 {
			return got == 0
		}
		return got >= 1 && got >= int64(n)*int64(ps)/1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// §1: a 4 KB non-temporal write plus fence must cost ~671 ns.
	got := PMStoreNT.Cost(4096) + PMFence.Fixed
	if got < 640 || got > 700 {
		t.Fatalf("4KB NT write+fence = %dns, want ~671ns", got)
	}
	// Table 2: store+flush+fence of one cache line must cost ~91 ns.
	sff := PMStore.Cost(CacheLine) + PMFlush.Cost(1) + PMFence.Fixed
	if sff < 80 || sff > 100 {
		t.Fatalf("store+flush+fence = %dns, want ~91ns", sff)
	}
}
