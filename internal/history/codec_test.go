package history

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/sim"
)

// TestWriterMatchesEncodingJSON pins the writer's byte-identity contract:
// every Chunk and Access record is exactly what json.Encoder produces for
// the equivalent ChunkRec or AccessRec, on edge values included, and so is
// every event-mode chunk, squash and pre-arbitration record, at each of
// several clock readings.
func TestWriterMatchesEncodingJSON(t *testing.T) {
	const max = math.MaxUint64
	chunks := []*chunk.Chunk{
		{Proc: 0, Seq: 0, CommitOrder: 0},
		{Proc: 0, Seq: 1, CommitOrder: 1, Log: []chunk.AccessRec{}},
		{Proc: 3, Seq: max, CommitOrder: max, Log: []chunk.AccessRec{
			{IsStore: true, Addr: mem.Addr(max), Value: max},
			{IsStore: false, Addr: 0, Value: 0},
			{IsStore: true, Addr: 64, Value: 1},
		}},
		{Proc: math.MaxInt, Seq: 7, CommitOrder: 9, Log: []chunk.AccessRec{{Addr: 8, Value: 42}}},
		{Proc: -1, Seq: 2, CommitOrder: 3},
	}
	accesses := []AccessRec{
		{Proc: 0, PO: 0, Addr: 0, Val: 0},
		{Proc: 1, PO: max, Store: true, Addr: max, Val: max},
		{Proc: 2, PO: 5, Addr: 64, Val: 7, Fwd: true},
		{Proc: 2, PO: 6, Store: true, Addr: 64, Val: 7, Fwd: true},
		{Proc: -5, PO: 1, Addr: 1, Val: 1},
	}

	var got, want bytes.Buffer
	w := NewWriter(&got)
	enc := json.NewEncoder(&want)
	chunkRecs := func(at uint64) {
		for _, ch := range chunks {
			w.CommitChunk(ch)
			rec := ChunkRec{Kind: KindChunk, Proc: ch.Proc, At: at, Seq: ch.Seq, Order: ch.CommitOrder, Ops: []Op{}}
			for _, a := range ch.Log {
				rec.Ops = append(rec.Ops, Op{Store: a.IsStore, Addr: uint64(a.Addr), Val: a.Value})
			}
			if err := enc.Encode(&rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunkRecs(0)
	for _, a := range accesses {
		w.Access(a.Proc, a.PO, a.Store, mem.Addr(a.Addr), a.Val, a.Fwd)
		a.Kind = KindAccess
		if err := enc.Encode(&a); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine(0)
	w.TraceEvents(eng)
	for _, at := range []sim.Time{0, 17, 1 << 40} {
		eng.AtCall(at, func(any) {}, nil)
		eng.Step()
		chunkRecs(uint64(at))
		events := []EventRec{
			{Kind: KindSquash, Proc: 3, Victims: 2, Instrs: 150, Genuine: true},
			{Kind: KindSquash, Proc: 0, Victims: 1},
			{Kind: KindSquash, Proc: math.MaxInt, Victims: math.MaxInt, Instrs: math.MinInt},
			{Kind: KindPreArb, Proc: 5},
			{Kind: KindPreArb, Proc: -1},
		}
		for _, e := range events {
			if e.Kind == KindSquash {
				w.Squash(e.Proc, e.Victims, e.Instrs, e.Genuine)
			} else {
				w.PreArb(e.Proc)
			}
			e.At = uint64(at)
			if err := enc.Encode(&e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gotLines := strings.SplitAfter(got.String(), "\n")
	wantLines := strings.SplitAfter(want.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("writer emitted %d lines, json.Encoder %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("record %d:\n got  %q\n want %q", i, gotLines[i], wantLines[i])
		}
	}
}

// TestScannerDecodesWriterOutput checks that every record the writer emits
// takes the exact-shape path, so Writer → Read never falls back to
// encoding/json, and that the result matches the reference reader's. The
// two record shapes go through separate histories, since Read rejects a
// history mixing them.
func TestScannerDecodesWriterOutput(t *testing.T) {
	chunks := func(w *Writer) {
		w.CommitChunk(&chunk.Chunk{Proc: 1, Seq: 1, CommitOrder: 1})
		w.CommitChunk(&chunk.Chunk{Proc: 2, Seq: math.MaxUint64, CommitOrder: 2, Log: []chunk.AccessRec{
			{IsStore: true, Addr: math.MaxUint64, Value: math.MaxUint64}, {Addr: 0, Value: 10},
		}})
		w.CommitChunk(&chunk.Chunk{Proc: 3, Seq: 3, CommitOrder: 3, Log: []chunk.AccessRec{}})
	}
	accesses := func(w *Writer) {
		w.Access(3, 1, true, 64, 1, false)
		w.Access(3, 2, false, 64, 1, true)
		w.Access(0, math.MaxUint64, true, math.MaxUint64, math.MaxUint64, true)
	}
	for _, emit := range []func(*Writer){chunks, accesses} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Header(Header{Model: "BulkSC", Procs: 4})
		emit(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		h := &History{}
		d := decoder{h: h}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		for i, line := range lines[1:] {
			if !d.record(line) {
				t.Fatalf("record %d not decoded by the exact decoder: %s", i+1, line)
			}
		}
		want, err := read(bytes.NewReader(buf.Bytes()), false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.Chunks, want.Chunks) || !reflect.DeepEqual(h.Accesses, want.Accesses) {
			t.Fatalf("scanner decoded\n%+v\n%+v\nencoding/json decoded\n%+v\n%+v",
				h.Chunks, h.Accesses, want.Chunks, want.Accesses)
		}
	}
}

// TestReadOverlongRecord is the regression test for over-long records: a
// line beyond maxLineBytes is reported by line number and limit, not as
// bufio.Scanner's bare "token too long".
func TestReadOverlongRecord(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"kind":"header","version":1}` + "\n")
	b.WriteString(`{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[`)
	for i := 0; i < 300_000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"addr":0,"val":0}`)
	}
	b.WriteString("]}\n")
	if b.Len() <= maxLineBytes {
		t.Fatalf("test line is %d bytes, not over the %d limit", b.Len(), maxLineBytes)
	}
	_, err := Read(strings.NewReader(b.String()))
	const want = "history: line 2: record exceeds 4 MB"
	if err == nil || err.Error() != want {
		t.Fatalf("Read error %v, want %q", err, want)
	}
}

// FuzzHistoryReader holds Read to the all-encoding/json reference on any
// input: the same History, or an error with the same text. Read runs twice,
// on a reader with Len() and on one without, so both the reserved and the
// appended record slices are held to the reference.
func FuzzHistoryReader(f *testing.F) {
	f.Add([]byte(`{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[{"store":true,"addr":64,"val":7}]}`))
	f.Add([]byte(`{"kind":"access","proc":1,"po":1,"addr":64,"val":7,"fwd":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := read(bytes.NewReader(data), false)
		for _, r := range []io.Reader{bytes.NewReader(data), struct{ io.Reader }{bytes.NewReader(data)}} {
			got, gotErr := Read(r)
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("Read error %v, reference error %v", gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Read returned\n%+v\nreference returned\n%+v", got, want)
			}
		}
	})
}
