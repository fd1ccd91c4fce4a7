package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// maxLineBytes bounds one NDJSON record; a 4 MB line comfortably holds a
// chunk of tens of thousands of logged accesses.
const maxLineBytes = 4 << 20

// Read parses an NDJSON history from r, validating structure as it goes.
// Blank lines are skipped. A header, when present, must be the first
// record; its version must be in [1, Version] and its format, when
// non-empty, must be "bulksc-history". Histories with no header get
// defaults (version 1, procs inferred), which is what lets traces authored
// by other systems check without ceremony.
//
// Chunk and access lines exactly as Writer emits them by default are
// decoded in place (codec.go); every other line, event-mode records
// included, goes through encoding/json, whose result the exact decoder is
// held to (FuzzHistoryReader). Lines are scanned one at a time whatever r
// is, but when r has a Len() method, as *bytes.Buffer, *bytes.Reader and
// *strings.Reader do, the record slice is reserved from it when the first
// operation record appears.
func Read(r io.Reader) (*History, error) {
	return read(r, true)
}

// read is Read with the exact decoder on or off; with fast false every
// line goes through encoding/json, the reference behaviour.
func read(r io.Reader, fast bool) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	h := &History{}
	d := decoder{h: h}
	if l, ok := r.(interface{ Len() int }); ok {
		d.left = l.Len()
	}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		d.left -= len(raw) + 1
		if fast && d.record(raw) {
			continue
		}
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		// Peek the record kind without committing to a shape.
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("history: line %d: %w", line, err)
		}
		switch probe.Kind {
		case KindHeader:
			if sawHeader {
				return nil, fmt.Errorf("history: line %d: duplicate header", line)
			}
			if len(h.Chunks) > 0 || len(h.Accesses) > 0 || len(h.Events) > 0 {
				return nil, fmt.Errorf("history: line %d: header after other records", line)
			}
			if err := json.Unmarshal(raw, &h.Header); err != nil {
				return nil, fmt.Errorf("history: line %d: header: %w", line, err)
			}
			if h.Header.Version < 1 || h.Header.Version > Version {
				return nil, fmt.Errorf("history: line %d: unsupported version %d (this reader handles 1..%d)",
					line, h.Header.Version, Version)
			}
			if h.Header.Format != "" && h.Header.Format != Format {
				return nil, fmt.Errorf("history: line %d: format %q, want %q", line, h.Header.Format, Format)
			}
			sawHeader = true
		case KindChunk:
			var c ChunkRec
			if err := json.Unmarshal(raw, &c); err != nil {
				return nil, fmt.Errorf("history: line %d: chunk: %w", line, err)
			}
			h.Chunks = append(h.Chunks, c)
		case KindAccess:
			var a AccessRec
			if err := json.Unmarshal(raw, &a); err != nil {
				return nil, fmt.Errorf("history: line %d: access: %w", line, err)
			}
			h.Accesses = append(h.Accesses, a)
		case KindSquash, KindPreArb:
			var e EventRec
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("history: line %d: %s: %w", line, probe.Kind, err)
			}
			h.Events = append(h.Events, e)
		case "":
			return nil, fmt.Errorf("history: line %d: record has no \"kind\" field", line)
		default:
			return nil, fmt.Errorf("history: line %d: unknown record kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("history: line %d: record exceeds %d MB", line+1, maxLineBytes>>20)
		}
		return nil, fmt.Errorf("history: %w", err)
	}
	if !sawHeader {
		h.Header = Header{Kind: KindHeader, Version: 1}
	}
	if len(h.Chunks) == 0 && len(h.Accesses) == 0 {
		return nil, fmt.Errorf("history: no operation records")
	}
	if err := h.validate(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return h, nil
}
