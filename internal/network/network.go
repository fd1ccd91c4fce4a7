// Package network models the generic interconnection network of the BulkSC
// architecture (paper Figure 5): a fabric connecting processors, directory
// modules and arbiters.
//
// The model is latency + accounting, matching the paper's "unloaded
// machine" methodology (Table 2): each message is delivered after a fixed
// per-hop latency, and its bytes are charged to one of Figure 11's traffic
// categories. Contention is not modeled; the paper's bandwidth argument is
// made in bytes transferred, which this package reproduces exactly.
package network

import (
	"bulksc/internal/fault"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// Standard message sizes in bytes. Control messages carry a header only;
// data messages carry a 32 B line; signature messages carry a compressed
// ≈350-bit signature (44 B, see sig.CompressedBytes).
const (
	CtrlBytes = 8
	DataBytes = 8 + 32
	SigBytes  = 8 + 44
)

// Network delivers messages between system components.
type Network struct {
	//lint:poolsafe immutable machine-lifetime references wired at construction
	eng *sim.Engine
	//lint:poolsafe immutable machine-lifetime references wired at construction
	st *stats.Stats
	// HopLat is the one-way latency between any two components. The
	// default reproduces the paper's 13-cycle L2 round trip (two hops
	// minus cache access time).
	HopLat sim.Time
	// Faults optionally injects extra per-message latency (internal/fault
	// delay-jitter campaigns). nil injects nothing and draws nothing, so
	// fault-free runs are bit-identical to a build without the hook.
	Faults *fault.Plan
}

// New returns a network over engine eng recording traffic into st.
func New(eng *sim.Engine, st *stats.Stats) *Network {
	return &Network{eng: eng, st: st, HopLat: 6}
}

// Reset restores the construction-time latency and detaches the per-run
// fault plan. The network holds no queued state of its own (in-flight
// messages live in the engine's event heap, which the machine resets
// separately), so this is all warm reuse needs.
func (n *Network) Reset() {
	n.HopLat = 6
	n.Faults = nil
}

// hopLat returns the delivery latency for one message: the configured hop
// latency plus any injected fault jitter.
//
//sim:hotpath
func (n *Network) hopLat() sim.Time {
	return n.HopLat + sim.Time(n.Faults.NetDelay())
}

// SendCall charges a message of b bytes to category c and delivers cb(arg)
// one hop later through the engine's typed-callback path: protocol layers
// reuse one long-lived callback and thread per-message state through a
// pooled record instead of capturing it in a closure.
//
//sim:hotpath
func (n *Network) SendCall(c stats.Category, b int, cb func(any), arg any) {
	n.st.AddTraffic(c, b)
	n.eng.AfterCall(n.hopLat(), cb, arg)
}

// SendAfterCall is SendCall with extra cycles of source-side occupancy or
// processing delay before the hop.
//
//sim:hotpath
func (n *Network) SendAfterCall(extra sim.Time, c stats.Category, b int, cb func(any), arg any) {
	n.st.AddTraffic(c, b)
	n.eng.AfterCall(n.hopLat()+extra, cb, arg)
}

// Account charges traffic without scheduling a delivery, for piggybacked
// payloads whose timing rides an existing message.
func (n *Network) Account(c stats.Category, b int) { n.st.AddTraffic(c, b) }

// Engine exposes the underlying engine for components that only hold the
// network.
func (n *Network) Engine() *sim.Engine { return n.eng }
