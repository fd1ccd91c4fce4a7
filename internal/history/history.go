// Package history defines the portable NDJSON trace format for memory-
// consistency histories, plus a streaming writer and a validating reader.
//
// A history is a newline-delimited sequence of JSON records describing one
// execution's committed memory operations. Two record shapes carry the
// operations, and one history uses only one of them:
//
//   - "chunk" records — one per committed chunk, in global commit order,
//     carrying the chunk's program-order access log and the commit order
//     the implementation claims for it. This is the BulkSC shape: the
//     arbiter names a total order of atomic chunks, and the offline
//     checker (internal/history/gk) verifies the named order explains
//     every observed value.
//   - "access" records — one per architectural memory access at its
//     perform instant, in perform order, carrying a per-processor
//     program-order index. This is the conventional-machine shape (the
//     SC/RC/SC++ baselines), and also the natural shape for histories
//     imported from other systems: any trace of reads and writes with
//     per-thread ordering can be expressed as access records.
//
// The format is deliberately self-contained — integers, no repo-internal
// types — so histories authored by other tools check cleanly through
// cmd/scchk. A minimal external history:
//
//	{"kind":"header","version":1,"format":"bulksc-history","procs":2}
//	{"kind":"access","proc":0,"po":1,"store":true,"addr":64,"val":1}
//	{"kind":"access","proc":1,"po":1,"addr":64,"val":1}
//
// The header is optional (defaults apply) but recommended; unknown record
// kinds and unknown header versions are errors, unknown *fields* are
// ignored so the format can grow.
//
// In event mode (core.Config.TraceEvents) chunk records also carry their
// commit cycle ("at"), and "squash" and "prearb" records between them
// carry the run's protocol events, which Read returns in History.Events
// and the checkers ignore.
//
// Export is wired behind core.Config.TraceWriter and `sweep -exp trace
// -trace-out`; it is pure observation — the writer hooks the same commit
// and perform instants the online witness checker audits, adds no
// simulation events, and therefore cannot perturb the determinism or
// witness golden hashes.
package history

import "fmt"

// Version is the current format version. Readers accept histories whose
// header declares any version in [1, Version].
const Version = 1

// Format is the magic string a header's "format" field must carry (when a
// header is present).
const Format = "bulksc-history"

// Kinds of NDJSON records.
const (
	KindHeader = "header"
	KindChunk  = "chunk"
	KindAccess = "access"
	KindSquash = "squash"
	KindPreArb = "prearb"
)

// Header is the optional first record of a history.
type Header struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Format  string `json:"format"`
	// Model names the consistency implementation that produced the
	// history ("BulkSC", "SC", "RC", ...). Informational.
	Model string `json:"model,omitempty"`
	// Procs is the processor count; 0 means "infer from the records".
	Procs int    `json:"procs,omitempty"`
	App   string `json:"app,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Work  int    `json:"work,omitempty"`
}

// Op is one memory access inside a chunk record, in program order.
type Op struct {
	// Store distinguishes writes from reads (absent = read).
	Store bool `json:"store,omitempty"`
	// Addr is the byte address of the accessed word.
	Addr uint64 `json:"addr"`
	// Val is the value written (stores) or observed (loads).
	Val uint64 `json:"val"`
}

// ChunkRec is one committed chunk: an atomic block of accesses with a
// claimed position in the global commit order.
type ChunkRec struct {
	Kind string `json:"kind"`
	// Proc is the committing processor.
	Proc int `json:"proc"`
	// At is the commit cycle, written in event mode only.
	At uint64 `json:"at,omitempty"`
	// Seq is the chunk's per-processor sequence number (strictly
	// increasing per processor).
	Seq uint64 `json:"seq"`
	// Order is the global commit order the implementation claims for the
	// chunk (strictly increasing across the history; gaps are fine — a
	// squashed chunk may consume an order that never commits).
	Order uint64 `json:"order"`
	// Ops is the chunk's access log in program order.
	Ops []Op `json:"ops"`
}

// AccessRec is one conventional architectural access at its perform
// instant. Records appear in perform order.
type AccessRec struct {
	Kind string `json:"kind"`
	Proc int    `json:"proc"`
	// PO is the processor's program-order index for the operation
	// (strictly increasing per processor).
	PO    uint64 `json:"po"`
	Store bool   `json:"store,omitempty"`
	Addr  uint64 `json:"addr"`
	Val   uint64 `json:"val"`
	// Fwd marks a load served from the processor's own store buffer; such
	// loads are exempt from the perform-order coherence obligation (the
	// ordering debt is collected when the buffered store performs).
	Fwd bool `json:"fwd,omitempty"`
}

// EventRec is one protocol event of an event-mode export: a squash of
// Victims chunks discarding Instrs executed instructions (Genuine: true
// sharing rather than signature aliasing), or a pre-arbitration grant.
type EventRec struct {
	Kind    string `json:"kind"`
	Proc    int    `json:"proc"`
	At      uint64 `json:"at"`
	Victims int    `json:"victims,omitempty"`
	Instrs  int    `json:"instrs,omitempty"`
	Genuine bool   `json:"genuine,omitempty"`
}

// History is a fully parsed trace. Chunks, Accesses and Events each
// preserve file order, which for the first two is the claimed commit or
// perform order.
type History struct {
	Header   Header
	Chunks   []ChunkRec
	Accesses []AccessRec
	Events   []EventRec
}

// Procs returns the processor count: the header's claim when present,
// otherwise 1 + the highest processor id appearing in any record.
func (h *History) Procs() int {
	if h.Header.Procs > 0 {
		return h.Header.Procs
	}
	n := 0
	for i := range h.Chunks {
		n = max(n, h.Chunks[i].Proc+1)
	}
	for i := range h.Accesses {
		n = max(n, h.Accesses[i].Proc+1)
	}
	for i := range h.Events {
		n = max(n, h.Events[i].Proc+1)
	}
	return n
}

// Ops returns the total operation count across both record shapes.
func (h *History) Ops() int {
	n := len(h.Accesses)
	for i := range h.Chunks {
		n += len(h.Chunks[i].Ops)
	}
	return n
}

// MaxProcs bounds processor ids (and a header's processor count): ids run
// from 0 to MaxProcs-1. The bound lets checkers keep dense per-processor
// state, so a history naming one huge id cannot make them allocate in
// proportion to it. It is far above any machine this repository builds.
const MaxProcs = 1 << 16

// validate checks the structural invariants that make a history checkable
// at all — one operation record shape, and processor ids of every record
// in [0, MaxProcs) and inside the header's count when it declares one.
// Ordering and value obligations are deliberately NOT checked here: those
// are the checker's verdict, not a parse error.
func (h *History) validate() error {
	if len(h.Chunks) > 0 && len(h.Accesses) > 0 {
		// The two shapes describe different machines and carry no
		// relative order, so no checker can audit them together.
		return fmt.Errorf("chunk and access records mixed in one history")
	}
	limit, bound := MaxProcs, fmt.Sprintf("the %d-processor bound", MaxProcs)
	if p := h.Header.Procs; p > MaxProcs {
		return fmt.Errorf("header declares %d processors, above the %d bound", p, MaxProcs)
	} else if p > 0 {
		limit, bound = p, fmt.Sprintf("header's %d processors", p)
	}
	check := func(kind string, i, proc int) error {
		switch {
		case proc < 0:
			return fmt.Errorf("%s record %d: negative proc %d", kind, i, proc)
		case proc >= limit:
			return fmt.Errorf("%s record %d: proc %d outside %s", kind, i, proc, bound)
		}
		return nil
	}
	for i := range h.Chunks {
		if err := check("chunk", i, h.Chunks[i].Proc); err != nil {
			return err
		}
	}
	for i := range h.Accesses {
		if err := check("access", i, h.Accesses[i].Proc); err != nil {
			return err
		}
	}
	for i := range h.Events {
		if err := check("event", i, h.Events[i].Proc); err != nil {
			return err
		}
	}
	return nil
}
