package arbiter

import (
	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/stats"
)

// Request is a permission-to-commit request. The processor fills W always;
// under the RSig optimization R is nil and FetchR lets the arbiter pull it
// only when its W list is non-empty.
//
// A request is one record from the W message to its last use: every event
// of its arbitration (the decision, the R round trip, each G-arbiter
// reserve, reply, Confirm and Abort) is a typed delivery of the record
// itself or of one of its legs. Records drawn from a RequestPool are
// recycled at that last use; tests may still pass literals, which are
// left to the garbage collector.
type Request struct {
	Proc int
	W    sig.Signature
	// R is the chunk's read signature, or nil if withheld (RSig opt).
	R sig.Signature
	// FetchR retrieves R at the processor: it is called when the fetch
	// message arrives there and must call its argument with the chunk's
	// R. The arbiter models the round trip around it. Required when R is
	// nil.
	FetchR func(cb func(sig.Signature))
	// TrueW is the chunk's exact write set, carried as simulation metadata
	// (it rides the W message; no extra traffic is charged). The directory
	// uses it to classify aliased lookups and invalidations.
	TrueW *lineset.Set
	// Reply is invoked exactly once at the arbiter's decision event.
	// granted=true means the chunk is serialized at this instant; order is
	// its position in the global commit order. The caller must treat the
	// decision instant as the chunk's logical commit point and model its
	// own notification latency.
	Reply func(granted bool, order uint64)
	// Hold is the requesting chunk's claim on W and TrueW. Every W-list
	// entry (a grant or a G-arbiter reservation) takes it before the Reply
	// and releases it when the entry leaves the list (Done or Abort), so
	// the chunk cannot be recycled while the arbiter or the directory flow
	// behind it still reads them. The zero Hold is inert.
	Hold chunk.Hold

	// arb is the single arbiter deciding the request; g the G-arbiter
	// coordinating it instead.
	arb *Arbiter
	g   *GArbiter
	// net carries the R round trip.
	net *network.Network
	// gotRFn is the bound gotR, created once per record and handed to
	// FetchR on every fetch.
	gotRFn func(sig.Signature)

	// G-arbiter transaction state. ranges is the stable copy of the
	// involved modules and legs has one entry per range; reserved lists
	// the legs whose arbiter reserved, in reply-arrival order; replies
	// counts the arrived replies and failed records a denial; confirms
	// counts the Confirm/Abort deliveries still in flight. The slices keep
	// their capacity across reuse.
	ranges   []int
	legs     []leg
	reserved []*leg
	sh       *garbShard
	replies  int
	confirms int
	failed   bool

	pool   *RequestPool
	pooled bool
}

// leg is one arbiter's part of a G-arbiter transaction: the delivery
// payload of its reserve, its reply, and its Confirm or Abort.
type leg struct {
	req *Request
	arb *Arbiter
	tok Token
	ok  bool
}

// RequestPool recycles Request records. A steady-state commit draws one
// record per request and the arbitration returns it at its last use, so
// the pool holds at most the in-flight request count.
type RequestPool struct {
	free []*Request
}

// Get draws a cleared record. The caller fills the exported fields and
// hands the record to Arbiter.Send or GArbiter.Send, which own it from
// then on.
//
//sim:hotpath
//sim:pool acquire
func (rp *RequestPool) Get() *Request {
	if n := len(rp.free); n > 0 {
		r := rp.free[n-1]
		rp.free[n-1] = nil
		rp.free = rp.free[:n-1]
		return r
	}
	return rp.seed()
}

// seed builds a fresh pooled record with its bound continuation; the free
// list absorbs it at its first release.
func (rp *RequestPool) seed() *Request {
	r := &Request{pool: rp, pooled: true}
	r.gotRFn = r.gotR
	return r
}

// putRequest returns a pooled record at its last use. References are
// dropped so a parked record pins no signatures, sets or callbacks; the
// transaction slices keep their capacity. Literal records are left alone.
//
//sim:hotpath
//sim:pool release
func putRequest(r *Request) {
	if !r.pooled {
		return
	}
	r.Proc = 0
	r.W, r.R = nil, nil
	r.FetchR, r.Reply = nil, nil
	r.TrueW = nil
	r.Hold = chunk.Hold{}
	r.arb, r.g, r.net, r.sh = nil, nil, nil, nil
	r.ranges = r.ranges[:0]
	clear(r.legs)
	r.legs = r.legs[:0]
	clear(r.reserved)
	r.reserved = r.reserved[:0]
	r.replies, r.confirms, r.failed = 0, 0, false
	r.pool.free = append(r.pool.free, r)
}

// fetchR models the arbiter → processor → arbiter round trip for a
// withheld R: a control message to the processor, where FetchR reads the
// chunk's R at arrival, and the R signature back. The record continues at
// rArrivedCB.
//
//sim:hotpath
func (r *Request) fetchR(net *network.Network) {
	if r.FetchR == nil {
		panic("arbiter: request without R or FetchR")
	}
	if r.gotRFn == nil {
		r.bindGotR()
	}
	r.net = net
	net.SendCall(stats.CatOther, network.CtrlBytes, fetchAtProcCB, r)
}

// bindGotR binds a literal record's continuation on its first fetch.
func (r *Request) bindGotR() { r.gotRFn = r.gotR }

//sim:hotpath
func fetchAtProcCB(arg any) {
	r := arg.(*Request)
	r.FetchR(r.gotRFn)
}

// gotR runs at the processor with the chunk's R and sends it back.
//
//sim:hotpath
func (r *Request) gotR(s sig.Signature) {
	r.R = s
	r.net.SendCall(stats.CatRdSig, network.SigBytes, rArrivedCB, r)
}

// rArrivedCB resumes the request once R is back: a G-arbiter request now
// ships (R,W) to its coordinator; a single-arbiter one is decided.
//
//sim:hotpath
func rArrivedCB(arg any) {
	r := arg.(*Request)
	if r.g != nil {
		r.net.SendCall(stats.CatWrSig, network.SigBytes, garbRequestCB, r)
		return
	}
	r.arb.decideWithR(r)
}
