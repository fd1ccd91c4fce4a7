package history

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/sim"
)

func TestRoundTripChunks(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header(Header{Model: "BulkSC", Procs: 2, App: "radix", Seed: 3, Work: 100})
	w.CommitChunk(&chunk.Chunk{
		Proc: 0, Seq: 1, CommitOrder: 1,
		Log: []chunk.AccessRec{
			{IsStore: true, Addr: 64, Value: 7},
			{IsStore: false, Addr: 64, Value: 7},
		},
	})
	w.CommitChunk(&chunk.Chunk{
		Proc: 1, Seq: 1, CommitOrder: 2,
		Log: []chunk.AccessRec{{IsStore: false, Addr: 64, Value: 7}},
	})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h.Header.Model != "BulkSC" || h.Header.Procs != 2 || h.Header.Version != Version {
		t.Fatalf("header mismatch: %+v", h.Header)
	}
	if len(h.Chunks) != 2 || len(h.Accesses) != 0 {
		t.Fatalf("got %d chunks %d accesses", len(h.Chunks), len(h.Accesses))
	}
	c0 := h.Chunks[0]
	if c0.Proc != 0 || c0.Seq != 1 || c0.Order != 1 || len(c0.Ops) != 2 {
		t.Fatalf("chunk 0 mismatch: %+v", c0)
	}
	if !c0.Ops[0].Store || c0.Ops[0].Addr != 64 || c0.Ops[0].Val != 7 {
		t.Fatalf("op mismatch: %+v", c0.Ops[0])
	}
	if c0.Ops[1].Store {
		t.Fatalf("op 1 should be a load: %+v", c0.Ops[1])
	}
	if h.Procs() != 2 {
		t.Fatalf("Procs() = %d, want 2", h.Procs())
	}
	if h.Ops() != 3 {
		t.Fatalf("Ops() = %d, want 3", h.Ops())
	}
}

func TestRoundTripAccesses(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header(Header{Model: "RC", Procs: 2})
	w.Access(0, 1, true, mem.Addr(128), 5, false)
	w.Access(0, 2, false, mem.Addr(128), 5, true)
	w.Access(1, 1, false, mem.Addr(128), 5, false)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(h.Accesses) != 3 {
		t.Fatalf("got %d accesses", len(h.Accesses))
	}
	a1 := h.Accesses[1]
	if a1.Store || !a1.Fwd || a1.PO != 2 || a1.Addr != 128 || a1.Val != 5 {
		t.Fatalf("access 1 mismatch: %+v", a1)
	}
}

// TestRoundTripEvents: an event-mode export reads back with each chunk's
// commit cycle and the squash and pre-arbitration records in file order.
func TestRoundTripEvents(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	eng := sim.NewEngine(0)
	w.TraceEvents(eng)
	w.Header(Header{Model: "BulkSC", Procs: 2})
	eng.AtCall(40, func(any) {}, nil)
	eng.Step()
	w.Squash(1, 2, 300, true)
	w.CommitChunk(&chunk.Chunk{Proc: 0, Seq: 1, CommitOrder: 1,
		Log: []chunk.AccessRec{{IsStore: true, Addr: 64, Value: 7}}})
	w.PreArb(1)
	w.Squash(0, 1, 0, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []EventRec{
		{Kind: KindSquash, Proc: 1, At: 40, Victims: 2, Instrs: 300, Genuine: true},
		{Kind: KindPreArb, Proc: 1, At: 40},
		{Kind: KindSquash, Proc: 0, At: 40, Victims: 1},
	}
	if !reflect.DeepEqual(h.Events, want) {
		t.Fatalf("events %+v, want %+v", h.Events, want)
	}
	if len(h.Chunks) != 1 || h.Chunks[0].At != 40 || len(h.Chunks[0].Ops) != 1 {
		t.Fatalf("chunks %+v", h.Chunks)
	}
}

// TestProcsCountsEvents: a headerless history's processor count covers
// the procs its event records name, not only its operation records'.
func TestProcsCountsEvents(t *testing.T) {
	h, err := Read(strings.NewReader(`{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[]}
{"kind":"squash","proc":3,"at":5,"victims":1}
`))
	if err != nil {
		t.Fatal(err)
	}
	if h.Procs() != 4 {
		t.Fatalf("Procs() = %d, want 4", h.Procs())
	}
}

// TestExternalHistory feeds a hand-authored headerless trace, the shape an
// external tool would emit, and checks defaults are applied.
func TestExternalHistory(t *testing.T) {
	src := `
{"kind":"access","proc":0,"po":1,"store":true,"addr":64,"val":1}

{"kind":"access","proc":1,"po":1,"addr":64,"val":1}
`
	h, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h.Header.Version != 1 {
		t.Fatalf("default version = %d, want 1", h.Header.Version)
	}
	if h.Procs() != 2 {
		t.Fatalf("inferred Procs() = %d, want 2", h.Procs())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no operation records"},
		{"header only", `{"kind":"header","version":1}`, "no operation records"},
		{"duplicate header", `{"kind":"header","version":1}` + "\n" + `{"kind":"header","version":1}`, "duplicate header"},
		{"late header", `{"kind":"access","proc":0,"po":1,"addr":0,"val":0}` + "\n" + `{"kind":"header","version":1}`, "header after other records"},
		{"bad version", `{"kind":"header","version":99}`, "unsupported version"},
		{"zero version", `{"kind":"header","version":0}`, "unsupported version"},
		{"bad format", `{"kind":"header","version":1,"format":"other"}`, `format "other"`},
		{"unknown kind", `{"kind":"mystery"}`, "unknown record kind"},
		{"missing kind", `{"proc":0}`, "no \"kind\" field"},
		{"not json", `not json at all`, "line 1"},
		{"negative proc", `{"kind":"access","proc":-1,"po":1,"addr":0,"val":0}`, "negative proc"},
		{"proc outside header", `{"kind":"header","version":1,"procs":2}` + "\n" + `{"kind":"access","proc":5,"po":1,"addr":0,"val":0}`, "outside header"},
		{"mixed shapes", `{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[{"store":true,"addr":0,"val":1}]}` + "\n" + `{"kind":"access","proc":1,"po":1,"addr":0,"val":1}`, "chunk and access records mixed in one history"},
		{"proc beyond bound", `{"kind":"access","proc":1099511627776,"po":1,"addr":0,"val":0}`, "proc 1099511627776 outside the 65536-processor bound"},
		{"event negative proc", `{"kind":"prearb","proc":-1,"at":5}` + "\n" + `{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[]}`, "event record 0: negative proc -1"},
		{"event proc outside header", `{"kind":"header","version":1,"procs":2}` + "\n" + `{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[]}` + "\n" + `{"kind":"squash","proc":2,"at":5,"victims":1}`, "event record 0: proc 2 outside header's 2 processors"},
		{"header after event", `{"kind":"squash","proc":0,"at":5,"victims":1}` + "\n" + `{"kind":"header","version":1}`, "header after other records"},
		{"malformed event", `{"kind":"squash","proc":0,"at":"soon"}`, "line 1: squash: json"},
		{"events only", `{"kind":"prearb","proc":0,"at":5}`, "no operation records"},
		{"header procs beyond bound", `{"kind":"header","version":1,"procs":65537}` + "\n" + `{"kind":"access","proc":0,"po":1,"addr":0,"val":0}`, "above the 65536 bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("Read accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// errWriter fails after n bytes to exercise the sticky-error path.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&errWriter{n: 8})
	for i := 0; i < 4096; i++ { // overflow the bufio buffer to force the write
		w.Access(0, uint64(i+1), true, 0, 0, false)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close did not surface the write error")
	}
	// Close again returns the same sticky error, not a fresh flush.
	if err := w.Close(); err == nil {
		t.Fatal("second Close lost the sticky error")
	}
}
