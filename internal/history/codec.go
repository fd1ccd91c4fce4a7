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
// only canonical lines — known lowercase keys without escapes, each at
// most once, plain decimal integers, true/false literals — and reports
// any other line as not handled, so Read sends it through encoding/json
// and unusual input keeps encoding/json's exact semantics and errors.
// FuzzHistoryReader pins that split.

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

// Keys of the operation records, one bit each, so a decoded line knows
// which keys it has seen.
const (
	keyKind = 1 << iota
	keyProc
	keySeq
	keyOrder
	keyOps
	keyPO
	keyStore
	keyAddr
	keyVal
	keyFwd

	chunkKeys  = keyKind | keyProc | keySeq | keyOrder | keyOps
	accessKeys = keyKind | keyProc | keyPO | keyStore | keyAddr | keyVal | keyFwd
)

// lineDecoder decodes canonical chunk and access lines. ops is scratch for
// the chunk being decoded; each record gets its own exact-size copy.
type lineDecoder struct {
	b   []byte
	i   int
	ops []Op
}

// record decodes one trimmed line and appends it to h. It returns false,
// leaving h unchanged, when the line is not a canonical chunk or access
// record.
func (d *lineDecoder) record(line []byte, h *History) bool {
	d.b, d.i = line, 0
	var (
		seen, key                       int
		kind                            string
		proc, seq, order, po, addr, val uint64
		store, fwd, ok                  bool
	)
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return false // no "kind"
	}
	for {
		if key, ok = d.key(); !ok || seen&key != 0 {
			return false
		}
		seen |= key
		switch key {
		case keyKind:
			kind, ok = d.kind()
		case keyProc:
			proc, ok = d.uint(math.MaxInt)
		case keySeq:
			seq, ok = d.uint(math.MaxUint64)
		case keyOrder:
			order, ok = d.uint(math.MaxUint64)
		case keyPO:
			po, ok = d.uint(math.MaxUint64)
		case keyAddr:
			addr, ok = d.uint(math.MaxUint64)
		case keyVal:
			val, ok = d.uint(math.MaxUint64)
		case keyStore:
			store, ok = d.bool()
		case keyFwd:
			fwd, ok = d.bool()
		case keyOps:
			ok = d.opsArray()
		}
		if !ok {
			return false
		}
		d.ws()
		if d.eat('}') {
			break
		}
		if !d.eat(',') {
			return false
		}
		d.ws()
	}
	if d.i != len(d.b) {
		return false
	}
	switch {
	case kind == KindChunk && seen&^chunkKeys == 0:
		var ops []Op
		if seen&keyOps != 0 { // a missing ops key leaves Ops nil, as in encoding/json
			ops = make([]Op, len(d.ops))
			copy(ops, d.ops)
		}
		h.Chunks = append(h.Chunks, ChunkRec{Kind: KindChunk, Proc: int(proc), Seq: seq, Order: order, Ops: ops})
	case kind == KindAccess && seen&^accessKeys == 0:
		h.Accesses = append(h.Accesses, AccessRec{Kind: KindAccess, Proc: int(proc), PO: po,
			Store: store, Addr: addr, Val: val, Fwd: fwd})
	default:
		return false
	}
	return true
}

// opsArray decodes a chunk's ops array into d.ops.
func (d *lineDecoder) opsArray() bool {
	d.ops = d.ops[:0]
	if !d.eat('[') {
		return false
	}
	d.ws()
	if d.eat(']') {
		return true
	}
	for {
		op, ok := d.op()
		if !ok {
			return false
		}
		d.ops = append(d.ops, op)
		d.ws()
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
		d.ws()
	}
}

// op decodes one {store, addr, val} object.
func (d *lineDecoder) op() (Op, bool) {
	var op Op
	if !d.eat('{') {
		return op, false
	}
	d.ws()
	if d.eat('}') {
		return op, true
	}
	seen := 0
	for {
		key, ok := d.key()
		if !ok || seen&key != 0 {
			return op, false
		}
		seen |= key
		switch key {
		case keyStore:
			op.Store, ok = d.bool()
		case keyAddr:
			op.Addr, ok = d.uint(math.MaxUint64)
		case keyVal:
			op.Val, ok = d.uint(math.MaxUint64)
		default:
			return op, false
		}
		if !ok {
			return op, false
		}
		d.ws()
		if d.eat('}') {
			return op, true
		}
		if !d.eat(',') {
			return op, false
		}
		d.ws()
	}
}

// key decodes `"name"` and the colon after it, returning the key's bit.
func (d *lineDecoder) key() (int, bool) {
	s, ok := d.str()
	if !ok {
		return 0, false
	}
	var key int
	switch string(s) {
	case "kind":
		key = keyKind
	case "proc":
		key = keyProc
	case "seq":
		key = keySeq
	case "order":
		key = keyOrder
	case "ops":
		key = keyOps
	case "po":
		key = keyPO
	case "store":
		key = keyStore
	case "addr":
		key = keyAddr
	case "val":
		key = keyVal
	case "fwd":
		key = keyFwd
	default:
		return 0, false
	}
	d.ws()
	if !d.eat(':') {
		return 0, false
	}
	d.ws()
	return key, true
}

// kind decodes the "kind" value; only the two operation kinds are handled.
func (d *lineDecoder) kind() (string, bool) {
	s, ok := d.str()
	switch {
	case !ok:
		return "", false
	case string(s) == KindChunk:
		return KindChunk, true
	case string(s) == KindAccess:
		return KindAccess, true
	}
	return "", false
}

// str decodes a string's raw bytes, escapes undecoded. Callers compare
// them with a known name, which has no escapes or control characters, so
// an unusual string never matches and its line takes the encoding/json
// path.
func (d *lineDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.b[d.i : d.i+n]
	d.i += n + 1
	return s, true
}

// uint decodes a plain decimal integer no larger than max: no sign,
// fraction, exponent or leading zero. A number followed by a fraction or
// exponent fails at the caller's delimiter check.
func (d *lineDecoder) uint(max uint64) (uint64, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '0' {
		d.i++
		return 0, true
	}
	var n uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if n > (max-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	if i == d.i {
		return 0, false
	}
	d.i = i
	return n, true
}

// bool decodes true or false.
func (d *lineDecoder) bool() (bool, bool) {
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// eat consumes c if it is the next byte.
func (d *lineDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *lineDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
