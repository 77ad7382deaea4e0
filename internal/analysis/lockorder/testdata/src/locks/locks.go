// Package locks models a two-level lock hierarchy for the lockorder
// golden tests.
//
// +lockrank:order outer < inner
package locks

import "sync"

// DB holds the outer lock.
type DB struct {
	Mu sync.Mutex // +lockrank:outer
}

// Table holds the inner lock.
type Table struct {
	mu sync.RWMutex // +lockrank:inner
}

// OK acquires outer before inner: the declared order.
func OK(db *DB, t *Table) {
	db.Mu.Lock()
	t.mu.Lock()
	t.mu.Unlock()
	db.Mu.Unlock()
}

// Bad acquires the outer lock while already holding the inner one.
func Bad(db *DB, t *Table) {
	t.mu.Lock()
	db.Mu.Lock() // want `acquires "outer" while holding "inner"`
	db.Mu.Unlock()
	t.mu.Unlock()
}

// DeferHeld shows that a deferred unlock keeps the lock held.
func DeferHeld(db *DB, t *Table) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	db.Mu.Lock() // want `acquires "outer" while holding "inner"`
	db.Mu.Unlock()
}

// LockOuter acquires the outer lock; callers holding inner must not
// call it.
func LockOuter(db *DB) {
	db.Mu.Lock()
	db.Mu.Unlock()
}

// lockOuterIndirect exercises the same-package transitive closure.
func lockOuterIndirect(db *DB) {
	LockOuter(db)
}

// BadCall re-enters the outer rank through a call.
func BadCall(db *DB, t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	LockOuter(db) // want `calls locks.LockOuter, which may acquire "outer", while holding "inner"`
}

// BadCallTransitive re-enters the outer rank two calls deep.
func BadCallTransitive(db *DB, t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lockOuterIndirect(db) // want `calls locks.lockOuterIndirect, which may acquire "outer", while holding "inner"`
}

// Catalog holds an outer read-write lock.
type Catalog struct {
	mu sync.RWMutex // +lockrank:outer
}

// BadReadUnderInner read-locks the outer rank under the inner one: the
// reader queues behind a writer that waits for the inner lock, so a read
// lock inverts the order as a write lock does (DESIGN.md "Static
// analysis", mutant L3).
func BadReadUnderInner(c *Catalog, t *Table) {
	t.mu.Lock()
	c.mu.RLock() // want `acquires "outer" while holding "inner"`
	t.mu.Unlock()
	c.mu.RUnlock()
}

// BadInLoop takes the outer rank under each element's inner lock
// (mutant L4).
func BadInLoop(c *Catalog, ts []*Table) {
	for _, t := range ts {
		t.mu.Lock()
		c.mu.RLock() // want `acquires "outer" while holding "inner"`
		c.mu.RUnlock()
		t.mu.Unlock()
	}
}

// Pool holds outer locks that are taken all at once, by index.
type Pool struct {
	dbs [4]DB
}

func (p *Pool) lockAll() {
	for i := range p.dbs {
		p.dbs[i].Mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for i := range p.dbs {
		p.dbs[i].Mu.Unlock()
	}
}

// freeze holds every outer lock, one call above lockAll.
func (p *Pool) freeze() {
	p.lockAll()
	defer p.unlockAll()
}

// BadFreezeUnderInner freezes the pool under the inner lock, as a device
// freezing its crash image under its event lock would (mutant L5).
func BadFreezeUnderInner(p *Pool, t *Table) {
	t.mu.Lock()
	p.freeze() // want `calls locks.\(Pool\).freeze, which may acquire "outer", while holding "inner"`
	t.mu.Unlock()
}

// SuppressedCall carries a reviewed suppression; no diagnostic must
// survive.
func SuppressedCall(db *DB, t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:ignore splitfs-lockorder exercised by the golden test
	LockOuter(db)
}

// BadSuppression misspells the check name: the driver flags the
// comment itself and the diagnostic it meant to cover survives.
func BadSuppression(db *DB, t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:ignore lockorder no splitfs- prefix // want `malformed suppression`
	db.Mu.Lock() // want `acquires "outer" while holding "inner"`
	db.Mu.Unlock()
}

// SpawnOuter starts a goroutine that takes the outer lock: it runs on
// its own stack, so the spawner's held set does not apply.
func SpawnOuter(db *DB, t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	go LockOuter(db)
}

// SequentialOK releases inner before touching outer: no overlap, no
// report.
func SequentialOK(db *DB, t *Table) {
	t.mu.Lock()
	t.mu.Unlock()
	db.Mu.Lock()
	db.Mu.Unlock()
}

// TwoTables takes two same-rank locks; multi-instance ranks are
// allowed.
func TwoTables(a, b *Table) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// unranked is outside the hierarchy and never reported.
type unranked struct {
	mu sync.Mutex
}

// Unranked mixes an unannotated mutex with ranked ones.
func Unranked(u *unranked, db *DB, t *Table) {
	u.mu.Lock()
	defer u.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
}
