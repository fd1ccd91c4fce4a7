package history

import (
	"bytes"
	"math"
	"strconv"

	"bulksc/internal/chunk"
)

// This file holds the byte-level codec for the two operation records, the
// history's hot path. The encoder appends records byte-identical to what
// json.Encoder produces for ChunkRec and AccessRec. The decoder accepts
// exactly the lines the encoder writes — fixed prefix, fixed key order,
// optional "store":true and "fwd":true, plain decimal integers, nothing
// after the closing brace — and reports any other line as not handled, so
// Read sends it through encoding/json and unusual input keeps
// encoding/json's exact semantics and errors. FuzzHistoryReader pins that
// split.

// appendChunk appends ch's chunk record and its trailing newline to b.
func appendChunk(b []byte, ch *chunk.Chunk) []byte {
	b = append(b, `{"kind":"chunk","proc":`...)
	b = strconv.AppendInt(b, int64(ch.Proc), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, ch.Seq, 10)
	b = append(b, `,"order":`...)
	b = strconv.AppendUint(b, ch.CommitOrder, 10)
	b = append(b, `,"ops":[`...)
	for i := range ch.Log {
		a := &ch.Log[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if a.IsStore {
			b = append(b, `"store":true,`...)
		}
		b = append(b, `"addr":`...)
		b = strconv.AppendUint(b, uint64(a.Addr), 10)
		b = append(b, `,"val":`...)
		b = strconv.AppendUint(b, a.Value, 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendAccess appends a's access record and its trailing newline to b.
func appendAccess(b []byte, a *AccessRec) []byte {
	b = append(b, `{"kind":"access","proc":`...)
	b = strconv.AppendInt(b, int64(a.Proc), 10)
	b = append(b, `,"po":`...)
	b = strconv.AppendUint(b, a.PO, 10)
	if a.Store {
		b = append(b, `,"store":true`...)
	}
	b = append(b, `,"addr":`...)
	b = strconv.AppendUint(b, a.Addr, 10)
	b = append(b, `,"val":`...)
	b = strconv.AppendUint(b, a.Val, 10)
	if a.Fwd {
		b = append(b, `,"fwd":true`...)
	}
	return append(b, "}\n"...)
}

// The fixed starts of the two operation records.
const (
	chunkPrefix  = `{"kind":"chunk","proc":`
	accessPrefix = `{"kind":"access","proc":`
)

// decoder appends Writer-shaped lines to h. Every decoded chunk's ops live
// in one arena, each chunk holding a 3-index sub-slice of it; a full arena
// is replaced, not regrown, so earlier chunks keep their storage. left
// counts the input bytes not yet scanned, from the reader's Len(); with
// no Len() it starts at 0 and runs negative.
type decoder struct {
	h    *History
	left int
	ops  []Op
}

// record decodes one line, untrimmed, and appends it to h. It returns
// false, leaving h unchanged, when the line is not exactly what Writer
// emits for a chunk or access record.
func (d *decoder) record(b []byte) bool {
	switch {
	case lit(b, 0, accessPrefix) > 0:
		return d.access(b)
	case lit(b, 0, chunkPrefix) > 0:
		return d.chunk(b)
	}
	return false
}

// access decodes an access line.
func (d *decoder) access(b []byte) bool {
	var store, fwd bool
	proc, i := num(b, len(accessPrefix))
	po, i := num(b, lit(b, i, `,"po":`))
	if j := lit(b, i, `,"store":true`); j >= 0 {
		store, i = true, j
	}
	addr, i := num(b, lit(b, i, `,"addr":`))
	val, i := num(b, lit(b, i, `,"val":`))
	if j := lit(b, i, `,"fwd":true`); j >= 0 {
		fwd, i = true, j
	}
	if lit(b, i, "}") != len(b) || proc > math.MaxInt {
		return false
	}
	h := d.h
	if h.Accesses == nil {
		h.Accesses = make([]AccessRec, 0, d.records(len(b)))
	}
	h.Accesses = append(h.Accesses, AccessRec{Kind: KindAccess, Proc: int(proc), PO: po,
		Store: store, Addr: addr, Val: val, Fwd: fwd})
	return true
}

// chunk decodes a chunk line, its ops into room taken at the arena's end.
func (d *decoder) chunk(b []byte) bool {
	proc, i := num(b, len(chunkPrefix))
	seq, i := num(b, lit(b, i, `,"seq":`))
	order, i := num(b, lit(b, i, `,"order":`))
	if i = lit(b, i, `,"ops":[`); i < 0 || proc > math.MaxInt {
		return false
	}
	// Every op is one object and the rest of an exact line has no other
	// brace, so this counts the ops; a line it miscounts fails below. An
	// op and its separator take at least 19 bytes, which bounds the room
	// a brace-heavy line that is not Writer output can take.
	n := bytes.Count(b[i:], []byte{'{'})
	if 19*n > len(b)-i {
		return false
	}
	ops := d.take(n, len(b))
	for k := range ops {
		op := &ops[k]
		if k > 0 {
			i = lit(b, i, ",")
		}
		if j := lit(b, i, `{"store":true,"addr":`); j >= 0 {
			op.Store, i = true, j
		} else {
			op.Store, i = false, lit(b, i, `{"addr":`)
		}
		op.Addr, i = num(b, i)
		op.Val, i = num(b, lit(b, i, `,"val":`))
		if i = lit(b, i, "}"); i < 0 {
			return false
		}
	}
	if lit(b, i, "]}") != len(b) {
		return false
	}
	d.ops = d.ops[:len(d.ops)+len(ops)]
	h := d.h
	if h.Chunks == nil {
		h.Chunks = make([]ChunkRec, 0, d.records(len(b)))
	}
	h.Chunks = append(h.Chunks, ChunkRec{Kind: KindChunk, Proc: int(proc), Seq: seq, Order: order, Ops: ops})
	return true
}

// records estimates how many records the input holds, counting the one on
// the current line of n bytes, from the bytes left to scan.
func (d *decoder) records(n int) int {
	return max(d.left, 0)/(n+1) + 1
}

// take returns room for n ops at the arena's end, claimed once the chunk
// decodes. The first arena extrapolates the first chunk's ops over the
// records left to scan; a full one is replaced by one twice its size, and
// nothing is copied.
func (d *decoder) take(n, lineLen int) []Op {
	l := len(d.ops)
	if d.ops == nil || cap(d.ops)-l < n {
		size := max(n, 2*cap(d.ops), 64)
		if d.ops == nil {
			size = max(size, d.records(lineLen)*n)
		}
		d.ops, l = make([]Op, 0, size), 0
	}
	return d.ops[l : l+n : l+n]
}

// lit returns the index past s if b[i:] starts with it, and -1 otherwise
// or when i is already -1.
func lit(b []byte, i int, s string) int {
	if i < 0 || len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return -1
	}
	return i + len(s)
}

// num decodes the plain decimal integer at b[i:] — no sign, fraction,
// exponent or leading zero, at most math.MaxUint64 — and returns it with
// the index past it, or -1 for the index when there is none or i is -1.
// A fraction or exponent after the digits fails at the caller's next lit.
func num(b []byte, i int) (uint64, int) {
	if i < 0 {
		return 0, -1
	}
	j, n := i, uint64(0)
	for j < len(b) && b[j]-'0' <= 9 {
		n = n*10 + uint64(b[j]-'0')
		j++
	}
	switch {
	case j == i || b[i] == '0' && j > i+1:
		return 0, -1
	case j-i >= 20: // 20 digits may overflow; fewer never do
		v, err := strconv.ParseUint(string(b[i:j]), 10, 64)
		if err != nil {
			return 0, -1
		}
		return v, j
	}
	return n, j
}
