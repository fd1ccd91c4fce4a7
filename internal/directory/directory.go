// Package directory implements the distributed directory modules of the
// BulkSC architecture (paper §4.3) together with the shared L2 they front.
//
// Each module keeps sparse sharer-set state (package sharerset: a
// limited-pointer inline array overflowing into a compact bitmap) for the
// lines in its address range and serves two protocols:
//
//   - The conventional invalidation protocol used by the SC, RC and SC++
//     baselines (read / read-exclusive / writeback, with owner forwarding
//     and sharer invalidation).
//   - The BulkSC commit protocol: a DirBDM expands incoming W signatures
//     over the directory state (the Table 1 case analysis), builds
//     invalidation lists, forwards the signature to sharer caches,
//     disables reads to committing lines until all acknowledgements
//     arrive, and reports completion to the arbiter.
//
// Entries under a multi-step transaction are marked busy and later
// requests queue behind them, the standard way real directories serialize
// racing requests.
package directory

import (
	"fmt"

	"bulksc/internal/arbiter"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sharerset"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/slab"
	"bulksc/internal/stats"
)

// Latency constants (cycles). Together with the network hop they reproduce
// Table 2's unloaded round trips: L1 miss → L2 hit ≈ 13 cycles, memory
// ≈ 300 cycles.
const (
	dirAccess  sim.Time = 1   // directory/L2 tag access
	memExtra   sim.Time = 287 // additional cycles for an off-chip access
	cacheProc  sim.Time = 2   // remote cache access time
	bounceWait sim.Time = 20  // retry delay for reads bounced by a commit
	commitProc sim.Time = 4   // DirBDM signature-expansion latency
	bdmProc    sim.Time = 5   // remote BDM disambiguation latency
)

// expansionBuckets is the granularity at which the DirBDM decodes
// signatures (δ): directory entries are indexed into 512 buckets by their
// low-order line bits, matching the signature's decodable bank.
const expansionBuckets = sig.BankBits

// Commit is a committing chunk's W signature in flight through the
// directory system.
type Commit struct {
	Tok   arbiter.Token
	Proc  int
	W     sig.Signature
	TrueW *lineset.Set
	// Priv marks an stpvt Wpriv propagation: caches invalidate matching
	// lines but skip disambiguation (private data is exempt from
	// consistency enforcement).
	Priv bool
	// d is the module the record is in flight at, and acks counts its
	// fan-out deliveries still out: sharer acks of an arbitrated commit,
	// ApplyCommit deliveries of a Wpriv propagation.
	d    *Directory
	acks int
	// Hold is the committing chunk's claim on W and TrueW, taken by the
	// sender and released when the record is recycled. Only Wpriv
	// propagations carry one: an arbitrated commit is covered by its
	// arbiter W-list entry, which outlives the record (Done follows
	// finishCommit).
	Hold chunk.Hold
	// pooled marks a record drawn from the module's pool via NewCommit;
	// only those are recycled at completion. Caller-constructed records
	// (tests, the displacement path) may outlive the flow and are left to
	// the garbage collector.
	pooled bool
}

// CachePort is the directory's view of one processor's L1/BDM. All methods
// are synchronous state changes applied at the delivery event; the
// directory wraps them in network hops and processing latencies.
type CachePort interface {
	// ApplyInvalidate removes l from the cache (conventional protocol).
	ApplyInvalidate(l mem.Line)
	// ApplyCommit performs bulk disambiguation and bulk invalidation for
	// an incoming committing W signature.
	ApplyCommit(c *Commit)
	// SnoopDirty is the owner-forwarding path for a demand request to a
	// line the directory believes is dirty here. The port supplies the
	// line (from the cache or, under dypvt, from the private buffer,
	// promoting it back to W) and downgrades it to Shared. supplied
	// reports whether the port had a forwardable committed version; holds
	// reports whether the cache still holds the line at all — false only
	// in the genuine "false owner" case (aliased directory updates, MESI
	// silent-displacement analogy), in which the directory drops the
	// owner from the sharer vector. A line speculatively re-written by an
	// active chunk reports holds=true so its eventual commit still finds
	// the owner in the bit vector.
	SnoopDirty(l mem.Line) (supplied, holds bool)
	// SnoopInvalidate is SnoopDirty plus invalidation, for conventional
	// read-exclusive requests.
	SnoopInvalidate(l mem.Line) bool
}

// entry is one directory entry: a sparse sharer set plus the dirty/owner
// state. Entries are recycled through the directory's free list; their
// pointers must stay stable while a transaction is in flight (multi-event
// paths like readShared keep the entry on their readTxn across network
// hops), which is why buckets hold *entry rather than inline values and
// why only non-busy entries are ever displaced. Every path that frees an entry (remove,
// drainBuckets) must Clear its sharer set first so overflow bitmaps return
// to the module's arena.
type entry struct {
	line    mem.Line
	sharers sharerset.Set
	dirty   bool
	owner   uint16
	busy    bool
	// waiters parks continuations behind a busy entry; release must drain
	// it (waiterpair pass) or queued requests deadlock the module.
	//sim:waitq dirwait
	waiters []func(e *entry)
	lru     uint64 // recency for the directory-cache variant
}

// entryMap is an open-addressed map from line to *entry — one per
// expansion bucket. Same idiom as package lineset: linear probing over a
// flat key array (line+1, 0 marks empty), Fibonacci hashing, tombstone-free
// backward-shift deletion, growth at 75% load. Compared to the Go map it
// replaces, lookups touch one flat array, inserts don't allocate per
// bucket-chain node, and iteration (the DirBDM expansion walk) is slot
// order — deterministic for a fixed history.
type entryMap struct {
	keys []uint64
	vals []*entry
	n    int
	//lint:poolsafe machine-lifetime recycler wiring to the owning module's arena; storage source only
	ar *emArena
}

// emArena recycles the power-of-two backing arrays of a module's 512
// entryMap buckets across warm machine resets (and across within-run
// growth). Capacity trajectories are untouched — reset still restores
// every bucket to its cold shape — the arena only lets the re-growth draw
// zeroed, size-matched arrays from recycled storage instead of the
// allocator. One arena per Directory, shared by its buckets.
type emArena struct {
	keys slab.Pool[uint64]
	vals slab.Pool[*entry]
}

// getKeys/getVals/put are nil-receiver-safe so a zero-value entryMap
// (tests, future callers outside a Directory) degrades to plain
// allocation.
//
//sim:pool acquire
func (a *emArena) getKeys(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.keys.Get(n)
}

//sim:pool acquire
func (a *emArena) getVals(n int) []*entry {
	if a == nil {
		return make([]*entry, n)
	}
	return a.vals.Get(n)
}

//sim:pool release
func (a *emArena) put(keys []uint64, vals []*entry) {
	if a == nil {
		return
	}
	a.keys.Put(keys)
	a.vals.Put(vals)
}

// emMinSlots keeps first allocation small: entries spread over 512 buckets,
// so most buckets hold only a handful of lines.
const emMinSlots = 8

func emHash(key uint64, mask int) int {
	return int((key*0x9e3779b97f4a7c15)>>33) & mask
}

//sim:hotpath
func (m *entryMap) get(l mem.Line) *entry {
	if m.n == 0 {
		return nil
	}
	mask := len(m.keys) - 1
	k := uint64(l) + 1
	for i := emHash(k, mask); ; i = (i + 1) & mask {
		v := m.keys[i]
		if v == k {
			return m.vals[i]
		}
		if v == 0 {
			return nil
		}
	}
}

//sim:hotpath
func (m *entryMap) put(l mem.Line, e *entry) {
	if m.keys == nil {
		m.keys = m.ar.getKeys(emMinSlots)
		m.vals = m.ar.getVals(emMinSlots)
	} else if m.n*4 >= len(m.keys)*3 {
		m.grow()
	}
	mask := len(m.keys) - 1
	k := uint64(l) + 1
	for i := emHash(k, mask); ; i = (i + 1) & mask {
		v := m.keys[i]
		if v == k {
			m.vals[i] = e
			return
		}
		if v == 0 {
			m.keys[i] = k
			m.vals[i] = e
			m.n++
			return
		}
	}
}

//sim:hotpath
func (m *entryMap) del(l mem.Line) bool {
	if m.n == 0 {
		return false
	}
	mask := len(m.keys) - 1
	k := uint64(l) + 1
	i := emHash(k, mask)
	for {
		v := m.keys[i]
		if v == 0 {
			return false
		}
		if v == k {
			break
		}
		i = (i + 1) & mask
	}
	m.keys[i] = 0
	m.vals[i] = nil
	m.n--
	// Backward-shift compaction keeps probe chains tombstone-free.
	j := i
	for {
		j = (j + 1) & mask
		v := m.keys[j]
		if v == 0 {
			return true
		}
		home := emHash(v, mask)
		if (j-home)&mask >= (j-i)&mask {
			m.keys[i] = v
			m.vals[i] = m.vals[j]
			m.keys[j] = 0
			m.vals[j] = nil
			i = j
		}
	}
}

// reset returns the bucket to its cold shape. Bit-identity across warm
// reuse requires the table's *capacity history* to match a cold run's,
// because the DirBDM expansion walk and displaceOne iterate buckets in
// slot order and slot = hash & (len-1): a retained grown table would place
// the next run's entries at different slots than cold growth would,
// reordering expansion visits and with them the whole event stream. A
// bucket still at its first-allocation size is zeroed in place (a zeroed
// 8-slot table is indistinguishable from a fresh one); a grown bucket
// parks its arrays in the module's arena so the next run re-walks the
// cold growth history from recycled storage instead of the allocator.
func (m *entryMap) reset() {
	if len(m.keys) == emMinSlots {
		clear(m.keys)
		clear(m.vals)
	} else if m.keys != nil {
		m.ar.put(m.keys, m.vals)
		m.keys = nil
		m.vals = nil
	}
	m.n = 0
}

func (m *entryMap) grow() {
	oldK, oldV := m.keys, m.vals
	m.keys = m.ar.getKeys(len(oldK) * 2)
	m.vals = m.ar.getVals(len(oldK) * 2)
	mask := len(m.keys) - 1
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		for i := emHash(k, mask); ; i = (i + 1) & mask {
			if m.keys[i] == 0 {
				m.keys[i] = k
				m.vals[i] = oldV[j]
				break
			}
		}
	}
	m.ar.put(oldK, oldV)
}

// Directory is one directory module (plus its slice of the shared L2).
type Directory struct {
	//lint:poolsafe stable identity fixed at construction
	ID int
	//lint:poolsafe immutable machine-lifetime references wired at construction
	eng *sim.Engine
	//lint:poolsafe immutable machine-lifetime references wired at construction
	net *network.Network
	//lint:poolsafe immutable machine-lifetime references wired at construction
	st *stats.Stats
	//lint:poolsafe immutable machine-lifetime references wired at construction
	l2 *cache.L2

	ports   []CachePort
	buckets []entryMap
	// emar recycles bucket backing arrays across growth and warm resets;
	// every bucket points at it (see emArena).
	//lint:poolsafe size-class storage recycler; recycled arrays are zeroed and identity-neutral
	emar emArena
	free []*entry // recycled entries (see entry doc on pointer stability)
	// slab batch-allocates fresh entries. Directory entries are long-lived
	// (one per tracked line) and pointer-stable, so they cannot be pooled
	// while alive — but carving them out of block allocations cuts the
	// allocator calls for a cold sweep by the slab size.
	//lint:poolsafe allocation reservoir; handed-out entries are fully reinitialized by getOrCreate
	slab []entry
	//lint:poolsafe recycled waiter-slice capacity; slices are emptied before being pushed
	wsFree [][]func(e *entry)
	//lint:poolsafe recycled transaction records; every field is overwritten at reuse
	rtFree []*readTxn // recycled read-transaction records
	//lint:poolsafe recycled transaction records; every field is overwritten at reuse
	wbFree []*wbTxn // recycled writeback-transaction records

	// shar recycles sharer-set overflow bitmaps for this module's entries;
	// Clear/Only return storage here and Add draws from it.
	shar sharerset.Arena
	// inval is the commit-expansion scratch bitmap: the invalidation list
	// accumulated by expand/expandPriv and consumed synchronously by the
	// forward fan-out within the same event.
	inval sharerset.Dense

	// committing holds in-flight commits at this module, used for the
	// read-disable membership checks. A short slice, not a map: it is
	// scanned on every demand read and rarely holds more than a couple of
	// commits.
	committing []*Commit
	// cFree recycles the pooled commit records NewCommit hands out: one
	// record per commit per module, fanned out BY REFERENCE to every
	// sharer cache (the W signature is never copied per sharer) and
	// recycled when the last delivery completes. Parked records hold no
	// signature or set references (putCommit drops them).
	//lint:poolsafe recycled records are fully reinitialized at reuse and hold no references while parked
	cFree []*Commit
	// foFree recycles fan-out delivery records (see fanout).
	//lint:poolsafe recycled records are fully reinitialized at reuse and hold no references while parked
	foFree []*fanout

	// OnDone reports commit completion to the owning arbiter.
	//lint:poolsafe stable machine wiring to the owning arbiter, installed once at construction
	OnDone func(tok arbiter.Token)

	// SigFactory builds signatures compatible with the system's encoding;
	// the directory-cache displacement path uses it to construct one-line
	// signatures. Defaults to the production Bloom encoding.
	SigFactory sig.Factory

	// Directory-cache variant (§4.3.3): when MaxEntries > 0, the module
	// holds at most that many entries and displaces with bulk
	// disambiguation at the sharer caches.
	MaxEntries int
	numEntries int
	tick       uint64
}

// New returns directory module id, fronting l2.
func New(id int, eng *sim.Engine, net *network.Network, st *stats.Stats, l2 *cache.L2) *Directory {
	d := &Directory{
		ID:      id,
		eng:     eng,
		net:     net,
		st:      st,
		l2:      l2,
		buckets: make([]entryMap, expansionBuckets),
	}
	for i := range d.buckets {
		d.buckets[i].ar = &d.emar
	}
	return d
}

// AttachPorts wires the processor cache ports and sizes the sharer-set
// arena and expansion scratch for the machine; must be called before any
// request.
func (d *Directory) AttachPorts(ports []CachePort) {
	d.ports = ports
	d.shar.Configure(len(ports))
	d.inval.Configure(len(ports))
}

// drainBuckets recycles every live entry into the free list and returns
// each bucket to its cold shape (see entryMap.reset for the bit-identity
// argument). The drain walk is slot order — deterministic — though the
// order only decides which recycled pointer serves which future line;
// getOrCreate reinitializes every field of a recycled entry, so pointer
// identity never reaches simulated state.
func drainBuckets(buckets []entryMap, free []*entry, ar *sharerset.Arena) []*entry {
	for bi := range buckets {
		b := &buckets[bi]
		if b.n > 0 {
			for i, k := range b.keys {
				if k != 0 {
					e := b.vals[i]
					e.sharers.Clear(ar)
					free = append(free, e)
				}
			}
		}
		b.reset()
	}
	return free
}

// Reset returns the module to its just-constructed state in place: live
// entries are recycled onto the free list (their pointers stay valid for
// the next run's getOrCreate, which reinitializes them fully), buckets
// return to cold shape, the committing list and per-run configuration
// (ports, SigFactory, MaxEntries) are detached, and the LRU clock
// restarts. The entry slab and the transaction/waiter pools are retained —
// they are allocation reservoirs whose contents are overwritten at reuse.
func (d *Directory) Reset() {
	d.free = drainBuckets(d.buckets, d.free, &d.shar)
	d.inval.Reset()
	clear(d.committing) // release commit records before truncating
	d.committing = d.committing[:0]
	d.ports = nil
	d.SigFactory = nil
	d.MaxEntries = 0
	d.numEntries = 0
	d.tick = 0
}

func (d *Directory) bucketOf(l mem.Line) int { return int(uint64(l) & (expansionBuckets - 1)) }

func (d *Directory) find(l mem.Line) *entry { return d.buckets[d.bucketOf(l)].get(l) }

func (d *Directory) getOrCreate(l mem.Line) *entry {
	b := &d.buckets[d.bucketOf(l)]
	if e := b.get(l); e != nil {
		return e
	}
	if d.MaxEntries > 0 && d.numEntries >= d.MaxEntries {
		d.displaceOne()
	}
	var e *entry
	if n := len(d.free); n > 0 {
		e = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		ws := e.waiters[:0]
		*e = entry{line: l, waiters: ws}
	} else {
		if len(d.slab) == 0 {
			d.slab = make([]entry, 256)
		}
		e = &d.slab[0]
		d.slab = d.slab[1:]
		e.line = l
	}
	b.put(l, e)
	d.numEntries++
	d.tick++
	e.lru = d.tick
	return e
}

func (d *Directory) remove(l mem.Line) {
	b := &d.buckets[d.bucketOf(l)]
	if e := b.get(l); e != nil {
		b.del(l)
		d.numEntries--
		e.sharers.Clear(&d.shar)
		d.free = append(d.free, e)
	}
}

// Entries returns the number of directory entries, for tests.
func (d *Directory) Entries() int { return d.numEntries }

// ForEachLine calls f with the line of every entry the module holds, in
// bucket order, for tests.
func (d *Directory) ForEachLine(f func(l mem.Line)) {
	for bi := range d.buckets {
		for _, k := range d.buckets[bi].keys {
			if k != 0 {
				f(mem.Line(k - 1))
			}
		}
	}
}

// State returns the sharing state of l, for tests: sharer bitmask (valid
// for machines of at most 64 processors — the legacy full-bit-vector
// view), dirty flag, owner.
func (d *Directory) State(l mem.Line) (sharers uint64, dirty bool, owner int) {
	if e := d.find(l); e != nil {
		return e.sharers.Mask(), e.dirty, int(e.owner)
	}
	return 0, false, -1
}

// withEntry runs f once l's entry is not busy, queueing behind an ongoing
// transaction if needed. Waiters are the bare continuations — no wrapper
// closure is allocated per queued request — and their backing slices are
// recycled through wsFree.
func (d *Directory) withEntry(l mem.Line, f func(e *entry)) {
	e := d.getOrCreate(l)
	if e.busy {
		if e.waiters == nil {
			if n := len(d.wsFree); n > 0 {
				e.waiters = d.wsFree[n-1]
				d.wsFree[n-1] = nil
				d.wsFree = d.wsFree[:n-1]
			}
		}
		e.waiters = append(e.waiters, f)
		return
	}
	d.tick++
	e.lru = d.tick
	f(e)
}

//sim:waitq final dirwait
func (d *Directory) release(e *entry) {
	e.busy = false
	ws := e.waiters
	e.waiters = nil
	if ws == nil {
		return
	}
	// A waiter may find the entry busy again and re-queue onto a fresh
	// slice, so detach before iterating; the drained slice is recycled.
	for i, f := range ws {
		ws[i] = nil
		d.withEntry(e.line, f)
	}
	d.wsFree = append(d.wsFree, ws[:0])
}

// l2Latency returns the module-side access latency for line l and installs
// it on chip.
func (d *Directory) l2Latency(l mem.Line) sim.Time {
	if d.l2.Contains(l) {
		d.st.L2Hits++
		return dirAccess
	}
	d.st.L2Misses++
	d.l2.Install(l)
	return dirAccess + memExtra
}

// ---------------------------------------------------------------------------
// Conventional protocol (SC / RC / SC++ baselines)
// ---------------------------------------------------------------------------

// readTxn is one pooled demand-read transaction. The record carries the
// request from the requester-side Read call through the module-arrival
// event (readArriveCB), bounce retries, the entry wait queue (startFn) and
// the data delivery, all without per-request closures. The multi-hop
// paths (owner forward, sharer invalidation) keep their state here too.
type readTxn struct {
	d       *Directory
	proc    int
	l       mem.Line
	excl    bool
	done    func(stateHint int)
	st      int            // granted state for the clean delivery path
	startFn func(e *entry) // bound t.start, reused across the pool
	// Multi-hop state: the busy entry, the snooped owner, whether the
	// owner still holds the line, and the invalidation acks still out.
	e     *entry
	owner int
	holds bool
	acks  int
}

func readArriveCB(arg any)  { arg.(*readTxn).arrive() }
func readDeliverCB(arg any) { arg.(*readTxn).deliver() }

func (d *Directory) newReadTxn(proc int, l mem.Line, excl bool, done func(int)) *readTxn {
	var t *readTxn
	if n := len(d.rtFree); n > 0 {
		t = d.rtFree[n-1]
		d.rtFree[n-1] = nil
		d.rtFree = d.rtFree[:n-1]
	} else {
		t = &readTxn{d: d}
		t.startFn = t.start
	}
	t.proc, t.l, t.excl, t.done = proc, l, excl, done
	return t
}

func (d *Directory) freeReadTxn(t *readTxn) {
	t.done = nil
	t.e = nil
	d.rtFree = append(d.rtFree, t)
}

// Read routes a demand miss from proc to this module: the request message
// is charged and delivered one hop later, where it is served at the
// module-arrival event. excl requests exclusive ownership (a write miss or
// upgrade). done runs at the requester when data (and, for excl, all
// invalidation acks) have arrived; it receives the granted line state as
// an int-typed cache.LineState hint.
//
// The same entry point serves BulkSC demand misses with excl=false; those
// additionally go through the read-disable bounce check.
func (d *Directory) Read(proc int, l mem.Line, excl bool, done func(stateHint int)) {
	t := d.newReadTxn(proc, l, excl, done)
	d.net.SendCall(stats.CatData, network.CtrlBytes, readArriveCB, t)
}

// arrive serves the request at the module: bounce committing lines, then
// take (or queue for) the directory entry.
func (t *readTxn) arrive() {
	d := t.d
	if d.bounced(t.l) {
		d.st.ReadBounces++
		d.st.AddTraffic(stats.CatOther, network.CtrlBytes)
		d.eng.AfterCall(bounceWait, readArriveCB, t)
		return
	}
	d.withEntry(t.l, t.startFn)
}

func (t *readTxn) start(e *entry) {
	if t.excl {
		t.d.readExcl(t, e)
	} else {
		t.d.readShared(t, e)
	}
}

// deliver completes the clean read path at the requester.
func (t *readTxn) deliver() {
	done, st := t.done, t.st
	t.d.freeReadTxn(t)
	done(st)
}

func (d *Directory) bounced(l mem.Line) bool {
	for _, c := range d.committing {
		if !c.Priv && c.W.MayContain(l) {
			return true
		}
	}
	return false
}

func (d *Directory) readShared(t *readTxn, e *entry) {
	proc := t.proc
	if e.dirty && int(e.owner) != proc {
		// Owner-forward path: multi-hop, rare.
		e.busy = true
		t.e = e
		t.owner = int(e.owner)
		// The transaction's outcome is decided now: the line becomes
		// shared by the requester. Commit-signature expansion may observe
		// the entry while the snoop is in flight, so the state must never
		// show a transient "dirty at the committer" — that would take
		// Table 1's no-op case and skip the invalidation list, breaking
		// the reader's squash guarantee.
		e.dirty = false
		e.sharers.Add(proc, &d.shar)
		// Forward to owner; owner supplies the line and downgrades.
		d.net.SendAfterCall(dirAccess, stats.CatOther, network.CtrlBytes, ownerSnoopCB, t)
		return
	}
	// Clean path — the overwhelmingly common one: the module answers from
	// L2/memory; the same pooled record rides the data message back.
	lat := d.l2Latency(e.line)
	st := cache.Shared
	if n := e.sharers.Count(); n == 0 || (n == 1 && e.sharers.Has(proc)) {
		st = cache.Excl
	}
	e.sharers.Add(proc, &d.shar)
	if e.dirty && int(e.owner) == proc {
		st = cache.Dirty
	}
	t.st = int(st)
	d.net.SendAfterCall(lat, stats.CatData, network.DataBytes, readDeliverCB, t)
}

// ownerSnoopCB runs at the owner of a read-shared line.
func ownerSnoopCB(arg any) {
	t := arg.(*readTxn)
	d := t.d
	had, holds := d.ports[t.owner].SnoopDirty(t.e.line)
	if had {
		// Owner sends the line to the requester directly and a
		// writeback copy to the directory.
		d.st.AddTraffic(stats.CatData, network.DataBytes)
		d.st.Writebacks++
	}
	t.holds = holds
	d.eng.AfterCall(cacheProc, ownerSupplyCB, t)
}

func ownerSupplyCB(arg any) {
	t := arg.(*readTxn)
	t.d.net.SendCall(stats.CatData, network.DataBytes, ownerDeliverCB, t)
}

// ownerDeliverCB completes an owner-forwarded read at the requester.
func ownerDeliverCB(arg any) {
	t := arg.(*readTxn)
	d, e, owner, done := t.d, t.e, t.owner, t.done
	if !t.holds && !(e.dirty && int(e.owner) == owner) {
		// False owner (aliased directory update): the owner silently
		// lacked the line; memory is current. Removing the stale sharer
		// late is conservative — unless a commit re-dirtied the entry
		// under this same owner while the snoop was in flight, in which
		// case the bit is the new ownership and must stay.
		e.sharers.Remove(owner)
	}
	d.freeReadTxn(t)
	d.release(e)
	done(int(cache.Shared))
}

func (d *Directory) readExcl(t *readTxn, e *entry) {
	proc := t.proc
	e.busy = true
	t.e = e
	if e.dirty && int(e.owner) != proc {
		t.owner = int(e.owner)
		d.net.SendAfterCall(dirAccess, stats.CatInv, network.CtrlBytes, exclSnoopCB, t)
		return
	}
	// Invalidate every other sharer, collect acks. ForEach is ascending
	// proc id — the same visit order as the full-bit-vector port loop it
	// replaces, which the golden event streams pin.
	t.acks = 0
	e.sharers.ForEach(func(p int) {
		if p == proc {
			return
		}
		t.acks++
		d.net.SendAfterCall(dirAccess, stats.CatInv, network.CtrlBytes, exclInvCB, d.getFanout(nil, t, p))
	})
	if t.acks == 0 {
		t.finish(d.l2Latency(e.line))
	}
}

// exclSnoopCB invalidates the dirty owner of a read-exclusive line.
func exclSnoopCB(arg any) {
	t := arg.(*readTxn)
	d := t.d
	had := d.ports[t.owner].SnoopInvalidate(t.e.line)
	if had {
		d.st.AddTraffic(stats.CatData, network.DataBytes)
		d.st.Writebacks++
	}
	d.st.ConvInvalidations++
	d.net.SendCall(stats.CatInv, network.CtrlBytes, exclOwnerAckCB, t)
}

func exclOwnerAckCB(arg any) { arg.(*readTxn).finish(0) }

// exclInvCB invalidates one sharer of a read-exclusive line.
func exclInvCB(arg any) {
	f := arg.(*fanout)
	d := f.d
	d.ports[f.p].ApplyInvalidate(f.t.e.line)
	d.st.ConvInvalidations++
	d.net.SendCall(stats.CatInv, network.CtrlBytes, exclInvAckCB, f)
}

// exclInvAckCB collects one sharer's ack; the last one finishes.
func exclInvAckCB(arg any) {
	f := arg.(*fanout)
	t := f.t
	f.d.putFanout(f)
	t.acks--
	if t.acks == 0 {
		t.finish(t.d.l2Latency(t.e.line))
	}
}

// finish grants the requester ownership extra cycles from now and sends
// the data.
func (t *readTxn) finish(extra sim.Time) {
	t.d.eng.AfterCall(extra, exclGrantCB, t)
}

func exclGrantCB(arg any) {
	t := arg.(*readTxn)
	e := t.e
	e.sharers.Only(t.proc, &t.d.shar)
	e.dirty = true
	e.owner = uint16(t.proc)
	t.d.net.SendCall(stats.CatData, network.DataBytes, exclDeliverCB, t)
}

// exclDeliverCB completes a read-exclusive at the requester.
func exclDeliverCB(arg any) {
	t := arg.(*readTxn)
	d, e, done := t.d, t.e, t.done
	d.freeReadTxn(t)
	d.release(e)
	done(int(cache.Dirty))
}

// wbTxn is one pooled writeback in flight from a cache to this module.
type wbTxn struct {
	d       *Directory
	proc    int
	l       mem.Line
	drop    bool
	applyFn func(e *entry) // bound t.apply, reused across the pool
}

func wbArriveCB(arg any) { arg.(*wbTxn).arrive() }

func (d *Directory) newWbTxn(proc int, l mem.Line, drop bool) *wbTxn {
	var t *wbTxn
	if n := len(d.wbFree); n > 0 {
		t = d.wbFree[n-1]
		d.wbFree[n-1] = nil
		d.wbFree = d.wbFree[:n-1]
	} else {
		t = &wbTxn{d: d}
		t.applyFn = t.apply
	}
	t.proc, t.l, t.drop = proc, l, drop
	return t
}

// Writeback retires a dirty line from proc's cache (eviction or explicit
// writeback), applied at the module one hop later. drop removes proc from
// the sharer vector as well. The data traffic is charged by the evicting
// cache.
func (d *Directory) Writeback(proc int, l mem.Line, drop bool) {
	t := d.newWbTxn(proc, l, drop)
	d.eng.AfterCall(d.net.HopLat, wbArriveCB, t)
}

func (t *wbTxn) arrive() {
	t.d.st.Writebacks++
	t.d.withEntry(t.l, t.applyFn)
}

func (t *wbTxn) apply(e *entry) {
	d := t.d
	if e.dirty && int(e.owner) == t.proc {
		e.dirty = false
	}
	if t.drop {
		e.sharers.Remove(t.proc)
	}
	d.l2.Install(t.l)
	d.wbFree = append(d.wbFree, t)
}

// Evicted records the silent eviction of a clean line; conventional
// protocols leave the stale sharer bit (it only costs a harmless future
// invalidation), matching MESI practice and the paper's false-owner
// discussion.
func (d *Directory) Evicted(proc int, l mem.Line) {}

// displaceOne implements the directory-cache displacement protocol
// (§4.3.3): the LRU entry's address is built into a one-line signature and
// sent to all sharer caches for bulk disambiguation (possibly squashing
// chunks) and invalidation; dirty copies are written back.
func (d *Directory) displaceOne() {
	var victim *entry
	for bi := range d.buckets {
		b := &d.buckets[bi]
		if b.n == 0 {
			continue
		}
		for i, k := range b.keys {
			if k == 0 {
				continue
			}
			e := b.vals[i]
			if e.busy {
				continue
			}
			if victim == nil || e.lru < victim.lru {
				victim = e
			}
		}
	}
	if victim == nil {
		return
	}
	d.st.DirCacheEvicts++
	l := victim.line
	f := d.SigFactory
	if f == nil {
		f = sig.NewFactory(sig.KindBloom)
	}
	one := f()
	one.Add(l)
	c := &Commit{Proc: -1, W: one, TrueW: lineset.NewSetOf(l), d: d}
	victim.sharers.ForEach(func(p int) {
		d.net.SendCall(stats.CatWrSig, network.SigBytes, evictArriveCB, d.getFanout(c, nil, p))
	})
	if victim.dirty {
		d.st.Writebacks++
		d.l2.Install(l)
	}
	d.remove(l)
}

// evictArriveCB delivers a displacement signature to one sharer, which
// acknowledges it.
func evictArriveCB(arg any) {
	f := arg.(*fanout)
	f.d.ports[f.p].ApplyCommit(f.c)
	f.d.net.SendCall(stats.CatInv, network.CtrlBytes, evictAckCB, f)
}

func evictAckCB(arg any) {
	f := arg.(*fanout)
	f.d.putFanout(f)
}

func (d *Directory) String() string {
	return fmt.Sprintf("dir%d{entries=%d committing=%d}", d.ID, d.numEntries, len(d.committing))
}
