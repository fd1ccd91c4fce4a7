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
//
// The DirBDM's buckets are modelled hardware: expansion visits every entry
// of every candidate bucket and counts each as a lookup (Table 4). The
// host layout only has to produce the same visits, so a module keeps one
// flat line→entry table, carves entries in first-touch order from an
// arena, and lists each bucket's entries for the expansion walk (see
// Directory).
package directory

import (
	"fmt"
	"math/bits"

	"bulksc/internal/arbiter"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sharerset"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
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
// state. Entries are carved from the module's arena in first-touch order
// and never move, because a transaction in flight holds its entry across
// network hops (readTxn.e) and only non-busy entries are ever displaced.
// Reset rewinds the arena; the displacement path (remove) parks entries on
// a free list. Both Clear the sharer set first so overflow bitmaps return
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

// slot is one line→entry table slot; key is line+1, so 0 marks empty.
type slot struct {
	key uint64
	e   *entry
}

// bucketRef is one entry of an expansion-bucket list. The line sits
// beside the pointer so the expansion walk tests membership without
// touching the entry.
type bucketRef struct {
	line mem.Line
	e    *entry
}

const (
	minTableSlots = 256 // initial table size, a power of two
	entryBlock    = 256 // entries per arena block
	fibMul        = 0x9e3779b97f4a7c15
)

// Directory is one directory module (plus its slice of the shared L2).
//
// Its entries live in three structures. The table maps a line to its
// entry: open addressing with linear probing, grouped Fibonacci hashing
// (see home), growth at 75% load and tombstone-free backward-shift
// deletion. The arena hands out entries in
// first-touch order from pointer-stable blocks. The 512 bucket lists hold
// every entry of each expansion bucket for the DirBDM walk. No simulated
// state depends on the order a bucket list or the table holds its
// entries (DESIGN §11), so all three keep their grown capacity across
// Reset.
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

	ports []CachePort
	table []slot
	// shift is 64 − log2(len(table)).
	//lint:poolsafe follows the table's retained size; Reset clears the slots, not the capacity
	shift   uint
	buckets [expansionBuckets][]bucketRef
	// blocks is the entry arena; used counts the entries carved from it.
	//lint:poolsafe pointer-stable entry storage; Reset rewinds used and newEntry reinitializes every entry it hands out
	blocks []*[entryBlock]entry
	used   int
	free   []*entry // entries the displacement path removed
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
	return &Directory{
		ID:    id,
		eng:   eng,
		net:   net,
		st:    st,
		l2:    l2,
		table: make([]slot, minTableSlots),
		shift: 64 - uint(bits.TrailingZeros(minTableSlots)),
	}
}

// AttachPorts wires the processor cache ports and sizes the sharer-set
// arena and expansion scratch for the machine; must be called before any
// request.
func (d *Directory) AttachPorts(ports []CachePort) {
	d.ports = ports
	d.shar.Configure(len(ports))
	d.inval.Configure(len(ports))
}

// Reset returns the module to its just-constructed state in place: every
// entry's sharer set is cleared, the arena rewinds, the table and bucket
// lists empty without giving up their capacity, the committing list and
// per-run configuration (ports, SigFactory, MaxEntries) are detached, and
// the LRU clock restarts. The transaction and waiter pools are retained;
// their contents are overwritten at reuse.
func (d *Directory) Reset() {
	for i := 0; i < d.used; i++ {
		d.blocks[i/entryBlock][i%entryBlock].sharers.Clear(&d.shar)
	}
	d.used = 0
	clear(d.free)
	d.free = d.free[:0]
	clear(d.table)
	for b := range d.buckets {
		d.buckets[b] = d.buckets[b][:0]
	}
	d.inval.Reset()
	clear(d.committing) // release commit records before truncating
	d.committing = d.committing[:0]
	d.ports = nil
	d.SigFactory = nil
	d.MaxEntries = 0
	d.numEntries = 0
	d.tick = 0
}

func bucketOf(l mem.Line) int { return int(uint64(l) & (expansionBuckets - 1)) }

// slotOf returns the table slot holding key, or the empty slot where it
// would go.
//
//sim:hotpath
func (d *Directory) slotOf(key uint64) int {
	mask := len(d.table) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		if k := d.table[i].key; k == key || k == 0 {
			return i
		}
	}
}

// home is key's home slot. Keys are hashed in aligned groups of eight:
// Fibonacci hashing picks a group's block and the low bits place each key
// within it, so a run of consecutive lines shares host cache lines.
func (d *Directory) home(key uint64) int {
	return int(((key>>3)*fibMul)>>d.shift)&^7 | int(key&7)
}

func (d *Directory) find(l mem.Line) *entry { return d.table[d.slotOf(uint64(l)+1)].e }

//sim:hotpath
func (d *Directory) getOrCreate(l mem.Line) *entry {
	key := uint64(l) + 1
	i := d.slotOf(key)
	if e := d.table[i].e; e != nil {
		return e
	}
	if d.MaxEntries > 0 && d.numEntries >= d.MaxEntries {
		d.displaceOne()
		i = d.slotOf(key)
	}
	if (d.numEntries+1)*4 > len(d.table)*3 {
		d.grow()
		i = d.slotOf(key)
	}
	e := d.newEntry(l)
	d.table[i] = slot{key, e}
	b := bucketOf(l)
	d.buckets[b] = append(d.buckets[b], bucketRef{l, e})
	d.numEntries++
	d.tick++
	e.lru = d.tick
	return e
}

// newEntry hands out a fresh entry for l: a displaced one if any, else the
// next one in the arena.
func (d *Directory) newEntry(l mem.Line) *entry {
	var e *entry
	if n := len(d.free); n > 0 {
		e = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		b := d.used / entryBlock
		if b == len(d.blocks) {
			d.blocks = append(d.blocks, new([entryBlock]entry))
		}
		e = &d.blocks[b][d.used%entryBlock]
		d.used++
	}
	*e = entry{line: l}
	return e
}

// grow doubles the table and rehashes every key into it.
func (d *Directory) grow() {
	old := d.table
	d.table = make([]slot, 2*len(old))
	d.shift--
	for _, s := range old {
		if s.key != 0 {
			d.table[d.slotOf(s.key)] = s
		}
	}
}

// remove deletes e from the table and its bucket list and parks it on the
// free list. Only the directory-cache displacement path removes entries.
func (d *Directory) remove(e *entry) {
	mask := len(d.table) - 1
	i := d.slotOf(uint64(e.line) + 1)
	d.table[i] = slot{}
	// Backward-shift deletion keeps probe chains tombstone-free.
	for j := (i + 1) & mask; d.table[j].key != 0; j = (j + 1) & mask {
		home := d.home(d.table[j].key)
		if (j-home)&mask >= (j-i)&mask {
			d.table[i] = d.table[j]
			d.table[j] = slot{}
			i = j
		}
	}
	b := bucketOf(e.line)
	list := d.buckets[b]
	for j := range list {
		if list[j].e == e {
			last := len(list) - 1
			list[j] = list[last]
			list[last] = bucketRef{}
			d.buckets[b] = list[:last]
			break
		}
	}
	d.numEntries--
	e.sharers.Clear(&d.shar)
	d.free = append(d.free, e)
}

// Entries returns the number of directory entries, for tests.
func (d *Directory) Entries() int { return d.numEntries }

// ForEachLine calls f with the line of every entry the module holds, in
// bucket order, for tests.
func (d *Directory) ForEachLine(f func(l mem.Line)) {
	for _, list := range d.buckets {
		for _, r := range list {
			f(r.line)
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
	for _, list := range d.buckets {
		for _, r := range list {
			if e := r.e; !e.busy && (victim == nil || e.lru < victim.lru) {
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
	d.remove(victim)
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
