// Package sim provides the simulated-time substrate for the SplitFS
// reproduction: a virtual nanosecond clock, the cost ledger that every
// charge to it names, and deterministic random-number helpers used by the
// workload generators.
//
// Every file-system operation in this repository charges simulated
// nanoseconds to a Clock instead of consuming wall-clock time. This makes
// the paper's evaluation deterministic and lets us decompose latency by
// ledger row, by layer, and into the categories the paper reasons about
// (raw PM data time vs. software overhead, Table 1 and Figure 5).
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Category labels a charge against the clock. The paper's core metric,
// software overhead, is defined as total time minus the time spent moving
// data to or from the PM device (CatPMData).
type Category int

const (
	// CatPMData is raw file data transferred to or from PM, including the
	// memcpy into user buffers. This is the "time spent actually accessing
	// data on the PM device" in the paper's §5.7 definition.
	CatPMData Category = iota
	// CatPMMeta is file-system metadata traffic to PM (inodes, bitmaps,
	// extent blocks, directory blocks).
	CatPMMeta
	// CatFence is time spent in persistence fences (sfence).
	CatFence
	// CatKernelTrap is the user/kernel crossing cost of a system call.
	CatKernelTrap
	// CatPageFault is page-fault handling during mmap population or
	// first-touch access.
	CatPageFault
	// CatAlloc is block/extent allocation work.
	CatAlloc
	// CatJournal is journaling work: transaction handles, descriptor,
	// journal block, and commit writes.
	CatJournal
	// CatOpLog is user-space operation logging (U-Split, NOVA logs).
	CatOpLog
	// CatCPU is other DRAM-side bookkeeping (index updates, lookups,
	// checksums).
	CatCPU

	numCategories
)

var categoryNames = [numCategories]string{
	"pm-data", "pm-meta", "fence", "kernel-trap", "page-fault",
	"alloc", "journal", "oplog", "cpu",
}

// String returns the short human-readable name of the category.
func (c Category) String() string {
	if c < 0 || c >= numCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories returns all categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Clock is a virtual nanosecond clock with a total per ledger row (per row
// and category for an OpenRow). It is safe for concurrent use: a charge is
// two atomic adds, and an atomic or the first time. The zero value is ready.
type Clock struct {
	now   atomic.Int64
	slots [maxSlots]atomic.Int64
	used  [maxSlots / 64]atomic.Uint64 // the slots charged so far
}

// NewClock returns a fresh clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Charge advances the clock by one charge of r's fixed cost.
func (c *Clock) Charge(r *Row) { c.add(r.slot, r.Fixed) }

// ChargeN advances the clock by one charge of r for n units.
func (c *Clock) ChargeN(r *Row, n int64) { c.add(r.slot, r.Cost(n)) }

// ChargeAs advances the clock by one charge of r for n units, booked to cat.
func (c *Clock) ChargeAs(r OpenRow, cat Category, n int64) {
	if cat < 0 || cat >= numCategories {
		panic(fmt.Sprintf("sim: %s charged to %v", r.Name, cat))
	}
	c.add(r.slot+int(cat), r.Cost(n))
}

func (c *Clock) add(slot int, ns int64) {
	if ns <= 0 {
		return
	}
	c.now.Add(ns)
	if c.slots[slot].Add(ns) == ns {
		c.used[slot/64].Or(1 << (slot % 64))
	}
}

// charged calls fn with each slot charged so far and its total.
func (c *Clock) charged(fn func(slot int, ns int64)) {
	for w := range c.used {
		for m := c.used[w].Load(); m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			fn(i, c.slots[i].Load())
		}
	}
}

// Now returns the current simulated time in nanoseconds.
func (c *Clock) Now() int64 { return c.now.Load() }

// Ledger is a snapshot of a clock's totals by row.
type Ledger struct {
	Total int64
	slots [maxSlots]int64
}

// Ledger returns the current totals by row.
func (c *Clock) Ledger() Ledger {
	l := Ledger{Total: c.now.Load()}
	c.charged(func(i int, ns int64) { l.slots[i] = ns })
	return l
}

// Sub returns the totals charged since the earlier snapshot.
func (l Ledger) Sub(earlier Ledger) Ledger { return l.plus(earlier, -1) }

// Add returns the sum of two ledgers.
func (l Ledger) Add(o Ledger) Ledger { return l.plus(o, 1) }

func (l Ledger) plus(o Ledger, sign int64) Ledger {
	l.Total += sign * o.Total
	for i := range nSlots {
		l.slots[i] += sign * o.slots[i]
	}
	return l
}

// Entry is one line of a ledger: a row, a category and their nanoseconds.
type Entry struct {
	Row *Row
	Cat Category
	Ns  int64
}

// Entries returns the ledger's non-zero lines in row order.
func (l Ledger) Entries() []Entry {
	var out []Entry
	for i, ns := range l.slots[:nSlots] {
		if ns != 0 {
			out = append(out, Entry{slotRow[i], slotCat[i], ns})
		}
	}
	return out
}

// Breakdown is a snapshot of the clock's totals by category.
type Breakdown struct {
	Total int64
	ByCat [int(numCategories)]int64
}

// Snapshot returns the current totals.
func (c *Clock) Snapshot() Breakdown {
	b := Breakdown{Total: c.now.Load()}
	c.charged(func(i int, ns int64) { b.ByCat[slotCat[i]] += ns })
	return b
}

// Sub returns the breakdown of time elapsed since the earlier snapshot.
func (b Breakdown) Sub(earlier Breakdown) Breakdown {
	var out Breakdown
	out.Total = b.Total - earlier.Total
	for i := range b.ByCat {
		out.ByCat[i] = b.ByCat[i] - earlier.ByCat[i]
	}
	return out
}

// DataTime returns the nanoseconds spent moving file data to/from PM.
func (b Breakdown) DataTime() int64 { return b.ByCat[CatPMData] }

// Overhead returns the paper's software-overhead metric: total time minus
// raw data time.
func (b Breakdown) Overhead() int64 { return b.Total - b.DataTime() }

// String renders the breakdown as "total [cat=ns ...]" listing non-zero
// categories.
func (b Breakdown) String() string {
	s := fmt.Sprintf("%dns [", b.Total)
	first := true
	for i, v := range b.ByCat {
		if v == 0 {
			continue
		}
		if !first {
			s += " "
		}
		first = false
		s += fmt.Sprintf("%s=%d", Category(i), v)
	}
	return s + "]"
}
