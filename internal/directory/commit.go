package directory

import (
	"math/bits"

	"bulksc/internal/arbiter"
	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/stats"
)

// ProcessCommit is the DirBDM path: it expands a committing chunk's W
// signature over this module's directory state, applies the Table 1 case
// analysis, forwards W to the caches on the invalidation list, keeps reads
// to the written lines disabled until every acknowledgement arrives, and
// finally reports completion to the arbiter via OnDone.
//
// Expansion works exactly like the hardware: δ decodes the signature into
// candidate buckets; every entry in those buckets is membership-tested;
// matching entries are "looked up" (Table 4's Lookups per Commit), and
// matches that the chunk did not truly write are the aliasing costs
// (Unnecessary Lookups / Unnecessary Updates).
//
//sim:hotpath
func (d *Directory) ProcessCommit(c *Commit) {
	d.st.DirCommits++
	c.d = d
	d.committing = append(d.committing, c)
	d.eng.AfterCall(commitProc, expandCB, c)
}

//sim:hotpath
func expandCB(arg any) {
	c := arg.(*Commit)
	c.d.expand(c)
}

// NewCommit draws a pooled commit record for a W signature entering this
// module. The signature and exact write set are attached by reference —
// the fan-out shares this one record (and therefore one W-sig) across
// every sharer delivery; nothing in the pipeline copies them per sharer.
// Records drawn here are recycled automatically when the commit flow
// completes (finishCommit, or the last priv-propagation delivery), so
// steady-state commit routing allocates no records.
//
//sim:hotpath
//sim:pool acquire
func (d *Directory) NewCommit(tok arbiter.Token, proc int, w sig.Signature, trueW *lineset.Set) *Commit {
	var c *Commit
	if n := len(d.cFree); n > 0 {
		c = d.cFree[n-1]
		d.cFree[n-1] = nil
		d.cFree = d.cFree[:n-1]
	} else {
		c = seedCommit()
	}
	c.d = d
	c.Tok = tok
	c.Proc = proc
	c.W = w
	c.TrueW = trueW
	c.Priv = false
	return c
}

// seedCommit builds a fresh pooled record; the free list absorbs it at
// its first release.
func seedCommit() *Commit { return &Commit{pooled: true} }

// putCommit recycles a pooled record once nothing in the pipeline can
// touch it again, then releases the record's Hold on the chunk.
// References are dropped so a parked record cannot pin a dead run's
// signatures or write sets.
//
//sim:hotpath
//sim:pool release
func (d *Directory) putCommit(c *Commit) {
	h := c.Hold
	c.Hold = chunk.Hold{}
	if c.pooled {
		c.Tok = 0
		c.Proc = 0
		c.W = nil
		c.TrueW = nil
		c.Priv = false
		c.acks = 0
		d.cFree = append(d.cFree, c)
	}
	h.Release()
}

//sim:hotpath
func (d *Directory) expand(c *Commit) {
	d.inval.Reset()
	mask := c.W.CandidateSets(expansionBuckets)
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			d.expandBucket(c, &d.buckets[w<<6|bits.TrailingZeros64(word)])
		}
	}
	d.forwardToCaches(c)
}

// expandBucket walks one candidate bucket of expand. Every entry in the
// module belongs to it: Read, Writeback and the Wpriv propagation all
// route by arbiter.RangeOf, so no entry needs an ownership check.
//
//sim:hotpath
func (d *Directory) expandBucket(c *Commit, b *entryMap) {
	for i, k := range b.keys {
		if k == 0 {
			continue
		}
		l := mem.Line(k - 1)
		e := b.vals[i]
		// Every entry in a candidate bucket is looked up (its tag and
		// state are read) — Table 4's "Lookups per Commit"; entries
		// the chunk did not truly write are the aliasing cost. The
		// full membership test (∈, all banks) then gates the action.
		// It goes first: W ⊇ TrueW (every exact-set insert also goes
		// into the signature, and fault amplification only adds), so a
		// line W rejects was not truly written and needs no TrueW probe.
		d.st.DirLookups++
		if !c.W.MayContain(l) {
			d.st.DirUnnecessary++
			continue
		}
		trulyWritten := c.TrueW.Has(l)
		if !trulyWritten {
			d.st.DirUnnecessary++
		}
		// Table 1 case analysis.
		switch {
		case e.dirty && !e.sharers.Has(c.Proc):
			// Case 3: dirty, committing proc not a sharer — false
			// positive; the committer would have fetched the line
			// and be recorded. Do nothing.
		case e.dirty:
			// Case 4: committing proc already the owner. Do nothing.
		case !e.sharers.Has(c.Proc):
			// Case 1: not dirty, proc not a sharer — false positive.
		default:
			// Case 2: proc is a sharer of a non-dirty line: it
			// becomes the owner; every other sharer joins the
			// invalidation list.
			d.inval.AddSetExcept(&e.sharers, c.Proc)
			e.sharers.Only(c.Proc, &d.shar)
			e.dirty = true
			e.owner = uint16(c.Proc)
			d.st.DirUpdates++
			if !trulyWritten {
				d.st.DirBadUpdates++
			}
		}
	}
}

// forwardToCaches fans the committing W signature out to the procs on
// d.inval, which it consumes synchronously — the sends are scheduled, not
// executed, within the caller's event, so the scratch bitmap is free for
// the next expansion as soon as this returns. The fan-out visits procs in
// ascending id order, matching the port loop it replaces. Each sharer's
// W-sig delivery, BDM delay and ack ride one pooled fanout record; the
// record counts the acks still out.
func (d *Directory) forwardToCaches(c *Commit) {
	d.inval.ForEach(func(p int) {
		c.acks++
		d.st.WSigNodeSends++
		d.net.SendCall(stats.CatWrSig, network.SigBytes, wsigArriveCB, d.getFanout(c, nil, p))
	})
	if c.acks == 0 {
		d.finishCommit(c)
	}
}

// wsigArriveCB delivers the W signature to one sharer's BDM; its ack
// leaves after the disambiguation latency.
//
//sim:hotpath
func wsigArriveCB(arg any) {
	f := arg.(*fanout)
	f.d.ports[f.p].ApplyCommit(f.c)
	f.d.eng.AfterCall(bdmProc, bdmDoneCB, f)
}

//sim:hotpath
func bdmDoneCB(arg any) {
	f := arg.(*fanout)
	f.d.net.SendCall(stats.CatInv, network.CtrlBytes, commitAckCB, f)
}

// commitAckCB collects one sharer's ack; the last one finishes the commit.
//
//sim:hotpath
func commitAckCB(arg any) {
	f := arg.(*fanout)
	c, d := f.c, f.d
	d.putFanout(f)
	c.acks--
	if c.acks == 0 {
		d.finishCommit(c)
	}
}

// finishCommit retires a commit whose acks are all in: its lines are
// readable again, and the completion message carries the record back to
// the arbiter side, where doneCB reports the token and recycles it.
//
//sim:hotpath
func (d *Directory) finishCommit(c *Commit) {
	for i, cc := range d.committing {
		if cc == c {
			d.committing = append(d.committing[:i], d.committing[i+1:]...)
			break
		}
	}
	if c.Priv {
		return
	}
	if d.OnDone == nil {
		panic("directory: OnDone not wired")
	}
	d.net.SendCall(stats.CatOther, network.CtrlBytes, doneCB, c)
}

// doneCB is the completion message's arrival. Every ApplyCommit delivery
// fired before the acks that led here and the record has left
// d.committing, so it is recycled before OnDone releases the W-list
// entry's hold on the chunk.
//
//sim:hotpath
func doneCB(arg any) {
	c := arg.(*Commit)
	d, tok := c.d, c.Tok
	d.putCommit(c)
	d.OnDone(tok)
}

// SendPrivCommit ships an stpvt Wpriv propagation for proc to this module,
// one hop from now. h is the sender's (already taken) claim on the chunk;
// the pooled record carries it until it is recycled.
//
//sim:hotpath
func (d *Directory) SendPrivCommit(proc int, w sig.Signature, trueW *lineset.Set, h chunk.Hold) {
	c := d.NewCommit(0, proc, w, trueW)
	c.Hold = h
	d.net.SendCall(stats.CatWrSig, network.SigBytes, privArriveCB, c) //lint:owner the propagation recycles the record after its last delivery
}

//sim:hotpath
func privArriveCB(arg any) {
	c := arg.(*Commit)
	c.d.ProcessPrivCommit(c, c.Hold)
}

// ProcessPrivCommit propagates an stpvt Wpriv signature (§5.1): private
// data must stay coherent because threads migrate, but it needs no
// arbitration, no read disabling and no disambiguation. Sharer caches
// simply invalidate matching lines. h is the sender's (already taken)
// claim on the chunk; the record releases it when it is recycled.
//
//sim:hotpath
func (d *Directory) ProcessPrivCommit(c *Commit, h chunk.Hold) {
	c.d = d
	c.Priv = true
	c.Hold = h
	d.eng.AfterCall(commitProc, expandPrivCB, c)
}

//sim:hotpath
func expandPrivCB(arg any) {
	c := arg.(*Commit)
	c.d.expandPriv(c)
}

//sim:hotpath
func (d *Directory) expandPriv(c *Commit) {
	d.inval.Reset()
	mask := c.W.CandidateSets(expansionBuckets)
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			d.expandPrivBucket(c, &d.buckets[w<<6|bits.TrailingZeros64(word)])
		}
	}
	d.forwardPrivToCaches(c)
}

// expandPrivBucket walks one candidate bucket of expandPriv.
//
//sim:hotpath
func (d *Directory) expandPrivBucket(c *Commit, b *entryMap) {
	for i, k := range b.keys {
		if k == 0 {
			continue
		}
		l := mem.Line(k - 1)
		e := b.vals[i]
		if !c.W.MayContain(l) {
			continue
		}
		if !e.dirty && e.sharers.Has(c.Proc) {
			d.inval.AddSetExcept(&e.sharers, c.Proc)
			e.sharers.Only(c.Proc, &d.shar)
			e.dirty = true
			e.owner = uint16(c.Proc)
		}
	}
}

// forwardPrivToCaches is expandPriv's fan-out: sharer caches invalidate
// matching lines, no acks (private data needs no read disabling). Consumes
// d.inval synchronously, ascending proc order. With no ack wave to ride,
// the record's lifetime is tracked by its count of deliveries still out:
// the last ApplyCommit to fire recycles it.
func (d *Directory) forwardPrivToCaches(c *Commit) {
	d.inval.ForEach(func(p int) {
		c.acks++
		d.net.SendCall(stats.CatWrSig, network.SigBytes, privDeliverCB, d.getFanout(c, nil, p))
	})
	if c.acks == 0 {
		d.putCommit(c)
	}
}

//sim:hotpath
func privDeliverCB(arg any) {
	f := arg.(*fanout)
	c, d, p := f.c, f.d, f.p
	d.putFanout(f)
	d.ports[p].ApplyCommit(c)
	c.acks--
	if c.acks == 0 {
		d.putCommit(c)
	}
}

// fanout is one per-target delivery of a multi-hop fan-out from module d:
// a commit's W-sig to one sharer (c) or a conventional invalidation on
// behalf of a read-exclusive transaction (t), to proc p. Records are
// pooled per module.
type fanout struct {
	d *Directory
	c *Commit
	t *readTxn
	p int
}

//sim:hotpath
func (d *Directory) getFanout(c *Commit, t *readTxn, p int) *fanout {
	var f *fanout
	if n := len(d.foFree); n > 0 {
		f = d.foFree[n-1]
		d.foFree[n-1] = nil
		d.foFree = d.foFree[:n-1]
	} else {
		f = seedFanout(d)
	}
	f.c, f.t, f.p = c, t, p
	return f
}

func seedFanout(d *Directory) *fanout { return &fanout{d: d} }

//sim:hotpath
func (d *Directory) putFanout(f *fanout) {
	f.c, f.t = nil, nil
	d.foFree = append(d.foFree, f)
}
