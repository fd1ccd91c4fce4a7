package history

import (
	"bufio"
	"encoding/json"
	"io"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/sim"
)

// Writer streams a history as NDJSON. It is an observation sink (a
// proc.Observer, so simlint's hashneutral pass checks it): the simulator
// calls CommitChunk at each commit instant, Access at each perform
// instant, and Squash and PreArb at their events, and the writer
// serializes without touching simulation state.
// Errors are sticky — the first write failure is retained and every later
// call becomes a no-op, so the hot hooks never need per-call error
// handling; the machine surfaces Close's error once, at end of run.
//
// A Writer is not safe for concurrent use; the simulator is
// single-goroutine per machine.
//
// CommitChunk and Access append their records into one reused buffer with
// the byte-level encoder in codec.go, whose output is byte-identical to
// json.Encoder's (TestWriterMatchesEncodingJSON); Header, written once,
// and every event-mode record keep encoding/json. The encode path carries
// no //sim:hotpath annotation: tracing is opt-in observation, and the
// allocation discipline applies to the machine, not to its export taps.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // the record being encoded, reused across records
	err error
	// clock is the engine whose cycle event mode stamps on each record;
	// nil is the default mode, which writes no events.
	//sim:observes
	clock *sim.Engine
}

// NewWriter returns a streaming NDJSON writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// TraceEvents puts the writer in event mode: from then on each chunk
// record carries clock's cycle as "at", and squashes and pre-arbitration
// grants are written as "squash" and "prearb" records.
func (t *Writer) TraceEvents(clock *sim.Engine) { t.clock = clock }

// Header writes the history header. Version and Format are filled in.
func (t *Writer) Header(h Header) {
	h.Kind = KindHeader
	h.Version = Version
	h.Format = Format
	t.encode(&h)
}

// encode writes one record through encoding/json.
func (t *Writer) encode(rec any) {
	if t.err == nil {
		t.err = json.NewEncoder(t.bw).Encode(rec)
	}
}

// CommitChunk writes one committed chunk's record from the live chunk
// state. Call at the commit instant, in commit order.
func (t *Writer) CommitChunk(ch *chunk.Chunk) {
	if t.err != nil {
		return
	}
	if t.clock != nil {
		rec := ChunkRec{Kind: KindChunk, Proc: ch.Proc, At: uint64(t.clock.Now()),
			Seq: ch.Seq, Order: ch.CommitOrder, Ops: make([]Op, len(ch.Log))}
		for i, a := range ch.Log {
			rec.Ops[i] = Op{Store: a.IsStore, Addr: uint64(a.Addr), Val: a.Value}
		}
		t.encode(&rec)
		return
	}
	t.buf = appendChunk(t.buf[:0], ch)
	_, t.err = t.bw.Write(t.buf)
}

// Access writes one conventional architectural access record. Call at the
// perform instant, in perform order.
func (t *Writer) Access(proc int, po uint64, store bool, a mem.Addr, v uint64, fwd bool) {
	if t.err != nil {
		return
	}
	t.buf = appendAccess(t.buf[:0], &AccessRec{
		Proc: proc, PO: po, Store: store, Addr: uint64(a), Val: v, Fwd: fwd,
	})
	_, t.err = t.bw.Write(t.buf)
}

// Squash writes a squash record in event mode.
func (t *Writer) Squash(proc, victims, instrs int, genuine bool) {
	if t.clock != nil {
		t.encode(&EventRec{Kind: KindSquash, Proc: proc, At: uint64(t.clock.Now()),
			Victims: victims, Instrs: instrs, Genuine: genuine})
	}
}

// PreArb writes a pre-arbitration record in event mode.
func (t *Writer) PreArb(proc int) {
	if t.clock != nil {
		t.encode(&EventRec{Kind: KindPreArb, Proc: proc, At: uint64(t.clock.Now())})
	}
}

// Close flushes buffered records and returns the first error encountered
// anywhere in the stream. The underlying io.Writer is not closed.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}
