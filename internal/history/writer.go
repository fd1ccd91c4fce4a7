package history

import (
	"bufio"
	"encoding/json"
	"io"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
)

// Writer streams a history as NDJSON. It is an observation sink (a
// proc.Observer, so simlint's hashneutral pass checks it): the simulator
// calls CommitChunk at each commit instant and Access at each perform
// instant, and the writer serializes without touching simulation state.
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
// keeps encoding/json. The encode path carries no //sim:hotpath
// annotation: tracing is opt-in observation, and the allocation
// discipline applies to the machine, not to its export taps.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // the record being encoded, reused across records
	err error
}

// NewWriter returns a streaming NDJSON writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Header writes the history header. Version and Format are filled in.
func (t *Writer) Header(h Header) {
	if t.err != nil {
		return
	}
	h.Kind = KindHeader
	h.Version = Version
	h.Format = Format
	t.err = json.NewEncoder(t.bw).Encode(&h)
}

// CommitChunk writes one committed chunk's record from the live chunk
// state. Call at the commit instant, in commit order.
func (t *Writer) CommitChunk(ch *chunk.Chunk) {
	if t.err != nil {
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

// Squash and PreArb record nothing: a history holds commits and accesses.
func (t *Writer) Squash(int, int, int, bool) {}
func (t *Writer) PreArb(int)                 {}

// Close flushes buffered records and returns the first error encountered
// anywhere in the stream. The underlying io.Writer is not closed.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}
