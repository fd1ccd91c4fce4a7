package history_test

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"bulksc"
	"bulksc/internal/chunk"
	"bulksc/internal/history"
	"bulksc/internal/mem"
)

// radixHistories exports one radix history per record shape — chunk
// records from BSC_dypvt, access records from SC — once per test binary.
var radixHistories = sync.OnceValues(func() (map[string][]byte, error) {
	out := map[string][]byte{}
	for name, variant := range map[string]string{"chunk": "dypvt", "access": "sc"} {
		cfg := bulksc.Variant("radix", variant)
		cfg.Work = 10_000
		var buf bytes.Buffer
		cfg.TraceWriter = &buf
		if _, err := bulksc.Run(cfg); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	return out, nil
})

func benchHistory(b *testing.B, name string) []byte {
	b.Helper()
	hs, err := radixHistories()
	if err != nil {
		b.Fatal(err)
	}
	return hs[name]
}

// TestRadixHistoryMatchesEncodingJSON checks the writer's byte identity on
// real exports: every line of a simulated radix history is what
// json.Encoder produces for the record Read decodes from it.
func TestRadixHistoryMatchesEncodingJSON(t *testing.T) {
	hs, err := radixHistories()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range hs {
		h, err := history.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		recs := []any{&h.Header}
		for i := range h.Chunks {
			recs = append(recs, &h.Chunks[i])
		}
		for i := range h.Accesses {
			recs = append(recs, &h.Accesses[i])
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(data, want.Bytes()) {
			t.Errorf("%s: exported history (%d bytes) differs from json.Encoder's encoding (%d bytes)",
				name, len(data), want.Len())
		}
	}
}

// BenchmarkHistoryWrite re-encodes an exported radix history through the
// Writer, record by record, as the simulator's commit and perform hooks do.
func BenchmarkHistoryWrite(b *testing.B) {
	for _, name := range []string{"chunk", "access"} {
		b.Run(name, func(b *testing.B) {
			data := benchHistory(b, name)
			h, err := history.Read(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			chunks := make([]chunk.Chunk, len(h.Chunks))
			for i, c := range h.Chunks {
				chunks[i] = chunk.Chunk{Proc: c.Proc, Seq: c.Seq, CommitOrder: c.Order}
				for _, op := range c.Ops {
					chunks[i].Log = append(chunks[i].Log,
						chunk.AccessRec{IsStore: op.Store, Addr: mem.Addr(op.Addr), Value: op.Val})
				}
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := history.NewWriter(io.Discard)
				w.Header(h.Header)
				for j := range chunks {
					w.CommitChunk(&chunks[j])
				}
				for _, a := range h.Accesses {
					w.Access(a.Proc, a.PO, a.Store, mem.Addr(a.Addr), a.Val, a.Fwd)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistoryRead parses an exported radix history. The chunk and
// access sub-benchmarks read from a *bytes.Reader, whose Len() lets Read
// reserve its record slice; the -stream ones hide Len(), as a pipe into
// cmd/scchk does, so the slice grows by appending.
func BenchmarkHistoryRead(b *testing.B) {
	for _, name := range []string{"chunk", "access"} {
		for _, stream := range []bool{false, true} {
			sub := name
			if stream {
				sub += "-stream"
			}
			b.Run(sub, func(b *testing.B) {
				data := benchHistory(b, name)
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := io.Reader(bytes.NewReader(data))
					if stream {
						r = struct{ io.Reader }{r}
					}
					if _, err := history.Read(r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
