package directory

import (
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
func (d *Directory) ProcessCommit(c *Commit) {
	d.st.DirCommits++
	d.committing = append(d.committing, c)
	d.eng.After(commitProc, func() { d.expand(c) })
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
		//lint:alloc one-time freelist seeding, amortized to zero by recycling
		c = &Commit{pooled: true}
	}
	c.Tok = tok
	c.Proc = proc
	c.W = w
	c.TrueW = trueW
	c.Priv = false
	return c
}

// putCommit recycles a pooled record once nothing in the pipeline can
// touch it again, then releases the record's Hold on the chunk.
// References are dropped so a parked record cannot pin a dead run's
// signatures or write sets.
//
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
		d.cFree = append(d.cFree, c)
	}
	h.Release()
}

//sim:hotpath
func (d *Directory) expand(c *Commit) {
	d.inval.Reset()
	mask := c.W.CandidateSets(expansionBuckets)
	for idx := 0; idx < expansionBuckets; idx++ {
		if !mask.Has(idx) {
			continue
		}
		b := &d.buckets[idx]
		for i, k := range b.keys {
			if k == 0 {
				continue
			}
			l := mem.Line(k - 1)
			e := b.vals[i]
			if d.nmods > 1 && d.ownerModule(l) != d.ID {
				continue
			}
			// Every entry in a candidate bucket is looked up (its tag and
			// state are read) — Table 4's "Lookups per Commit"; entries
			// the chunk did not truly write are the aliasing cost. The
			// full membership test (∈, all banks) then gates the action.
			d.st.DirLookups++
			trulyWritten := c.TrueW.Has(l)
			if !trulyWritten {
				d.st.DirUnnecessary++
			}
			if !c.W.MayContain(l) {
				continue
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
	d.forwardToCaches(c)
}

// ownerModule maps a line to its directory module (same interleave as the
// distributed arbiter).
func (d *Directory) ownerModule(l mem.Line) int {
	return int((uint64(l) / 64) % uint64(d.nmods))
}

// forwardToCaches fans the committing W signature out to the procs on
// d.inval, which it consumes synchronously — the sends are scheduled, not
// executed, within the caller's event, so the scratch bitmap is free for
// the next expansion as soon as this returns. The fan-out visits procs in
// ascending id order, matching the port loop it replaces.
func (d *Directory) forwardToCaches(c *Commit) {
	pendingAcks := 0
	d.inval.ForEach(func(p int) {
		pendingAcks++
		d.st.WSigNodeSends++
		pp := p
		d.net.Send(stats.CatWrSig, network.SigBytes, func() {
			d.ports[pp].ApplyCommit(c)
			d.eng.After(bdmProc, func() {
				d.net.Send(stats.CatInv, network.CtrlBytes, func() {
					pendingAcks--
					if pendingAcks == 0 {
						d.finishCommit(c)
					}
				})
			})
		})
	})
	if pendingAcks == 0 {
		d.finishCommit(c)
	}
}

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
	// Completion message back to the arbiter. The token is captured by
	// value so the record can be recycled immediately: every ApplyCommit
	// delivery has already fired (the acks trail them by construction),
	// the record has just left d.committing, and nothing else holds it.
	tok := c.Tok
	d.putCommit(c)
	d.net.Send(stats.CatOther, network.CtrlBytes, func() { d.OnDone(tok) })
}

// ProcessPrivCommit propagates an stpvt Wpriv signature (§5.1): private
// data must stay coherent because threads migrate, but it needs no
// arbitration, no read disabling and no disambiguation. Sharer caches
// simply invalidate matching lines. h is the sender's (already taken)
// claim on the chunk; the record releases it when it is recycled.
func (d *Directory) ProcessPrivCommit(c *Commit, h chunk.Hold) {
	c.Priv = true
	c.Hold = h
	d.eng.After(commitProc, func() { d.expandPriv(c) })
}

//sim:hotpath
func (d *Directory) expandPriv(c *Commit) {
	d.inval.Reset()
	mask := c.W.CandidateSets(expansionBuckets)
	for idx := 0; idx < expansionBuckets; idx++ {
		if !mask.Has(idx) {
			continue
		}
		b := &d.buckets[idx]
		for i, k := range b.keys {
			if k == 0 {
				continue
			}
			l := mem.Line(k - 1)
			e := b.vals[i]
			if d.nmods > 1 && d.ownerModule(l) != d.ID {
				continue
			}
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
	d.forwardPrivToCaches(c)
}

// forwardPrivToCaches is expandPriv's fan-out: sharer caches invalidate
// matching lines, no acks (private data needs no read disabling). Consumes
// d.inval synchronously, ascending proc order. With no ack wave to ride,
// the record's lifetime is tracked by a delivery count: the last
// ApplyCommit to fire recycles it.
func (d *Directory) forwardPrivToCaches(c *Commit) {
	pendingDeliveries := 0
	d.inval.ForEach(func(p int) {
		pendingDeliveries++
		pp := p
		d.net.Send(stats.CatWrSig, network.SigBytes, func() {
			d.ports[pp].ApplyCommit(c)
			pendingDeliveries--
			if pendingDeliveries == 0 {
				d.putCommit(c)
			}
		})
	})
	if pendingDeliveries == 0 {
		d.putCommit(c)
	}
}
