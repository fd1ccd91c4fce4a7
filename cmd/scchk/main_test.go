package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bulksc/internal/history"
)

func runScchk(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	// Route stdin through a temp file so the test does not fight over
	// os.Stdin: "-" and file input share the same code path anyway.
	if stdin != "" {
		f := filepath.Join(t.TempDir(), "in.ndjson")
		if err := os.WriteFile(f, []byte(stdin), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, f)
	}
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const cleanChunks = `{"kind":"header","version":1,"format":"bulksc-history","model":"BulkSC","procs":2}
{"kind":"chunk","proc":0,"seq":1,"order":1,"ops":[{"store":true,"addr":64,"val":7}]}
{"kind":"chunk","proc":1,"seq":1,"order":2,"ops":[{"addr":64,"val":7}]}
`

func TestOkHistory(t *testing.T) {
	code, out, _ := runScchk(t, cleanChunks)
	if code != 0 {
		t.Fatalf("exit %d, out=%q", code, out)
	}
	if !strings.Contains(out, "ok (2 procs, 2 chunks, 2 ops)") {
		t.Fatalf("summary missing: %q", out)
	}
}

func TestQuiet(t *testing.T) {
	code, out, _ := runScchk(t, cleanChunks, "-q")
	if code != 0 || out != "" {
		t.Fatalf("exit %d, out=%q", code, out)
	}
}

func TestViolatingHistory(t *testing.T) {
	bad := strings.Replace(cleanChunks, `{"addr":64,"val":7}`, `{"addr":64,"val":9}`, 1)
	code, out, _ := runScchk(t, bad)
	if code != 1 {
		t.Fatalf("exit %d, out=%q", code, out)
	}
	if !strings.Contains(out, "coherence") {
		t.Fatalf("violation rendering missing: %q", out)
	}
}

// TestExternalHistory is the acceptance-criteria case: a hand-authored
// headerless trace from outside this repo renders a correct verdict.
func TestExternalHistory(t *testing.T) {
	ext := `{"kind":"access","proc":0,"po":1,"store":true,"addr":64,"val":1}
{"kind":"access","proc":1,"po":1,"addr":64,"val":1}
`
	if code, out, _ := runScchk(t, ext); code != 0 {
		t.Fatalf("external ok-history: exit %d, out=%q", code, out)
	}
	// Same trace, but the read observes a value never written: verdict 1.
	bad := strings.Replace(ext, `"addr":64,"val":1}`+"\n", `"addr":64,"val":1}`+"\n", 1)
	bad = strings.Replace(bad, `{"kind":"access","proc":1,"po":1,"addr":64,"val":1}`,
		`{"kind":"access","proc":1,"po":1,"addr":64,"val":3}`, 1)
	if code, out, _ := runScchk(t, bad); code != 1 {
		t.Fatalf("external bad-history: exit %d, out=%q", code, out)
	}
}

func TestSearchVerdicts(t *testing.T) {
	sb := `{"kind":"access","proc":0,"po":1,"store":true,"addr":0,"val":1}
{"kind":"access","proc":0,"po":2,"addr":8,"val":0}
{"kind":"access","proc":1,"po":1,"store":true,"addr":8,"val":1}
{"kind":"access","proc":1,"po":2,"addr":0,"val":0}
`
	code, out, _ := runScchk(t, sb, "-search")
	if code != 1 || !strings.Contains(out, "NOT sequentially consistent") {
		t.Fatalf("forbidden SB: exit %d, out=%q", code, out)
	}
	mp := `{"kind":"access","proc":0,"po":1,"store":true,"addr":0,"val":1}
{"kind":"access","proc":1,"po":1,"addr":0,"val":1}
`
	if code, out, _ := runScchk(t, mp, "-search"); code != 0 || !strings.Contains(out, "serializable") {
		t.Fatalf("serializable: exit %d, out=%q", code, out)
	}
	if code, _, errb := runScchk(t, sb, "-search", "-max-states", "1"); code != 2 || !strings.Contains(errb, "inconclusive") {
		t.Fatalf("bounded: exit %d, err=%q", code, errb)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runScchk(t, "", "-nosuchflag"); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
	if code, _, errb := runScchk(t, "", "a", "b"); code != 2 || !strings.Contains(errb, "at most one input") {
		t.Fatalf("two inputs: exit %d, err=%q", code, errb)
	}
	if code, _, _ := runScchk(t, "", "/no/such/file.ndjson"); code != 2 {
		t.Fatalf("missing file: exit %d", code)
	}
	if code, _, errb := runScchk(t, "not json"); code != 2 || !strings.Contains(errb, "line 1") {
		t.Fatalf("malformed: exit %d err=%q", code, errb)
	}
}

// TestFileInputReservesOnce: a regular file decodes to the same History as
// the same bytes in a *bytes.Reader, and, sized from Stat, reserves its
// record slice once, where the same bytes without a Len regrow it.
func TestFileInputReservesOnce(t *testing.T) {
	var b bytes.Buffer
	const n = 3000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"kind":"access","proc":%d,"po":%d,"addr":%d,"val":%d}`+"\n",
			i%4, 100000+i/4, 1024+8*(i%8), 0)
	}
	path := filepath.Join(t.TempDir(), "acc.ndjson")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := openInput(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	l, ok := in.(interface{ Len() int })
	if !ok || l.Len() != b.Len() {
		t.Fatalf("a regular file of %d bytes was not sized: %T", b.Len(), in)
	}
	got, err := history.Read(in)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d after the whole file was read", l.Len())
	}
	want, err := history.Read(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file input decoded differently from a *bytes.Reader")
	}
	if len(got.Accesses) != n || cap(got.Accesses) != cap(want.Accesses) || cap(got.Accesses) > n+1 {
		t.Fatalf("file input: %d accesses in cap %d, *bytes.Reader cap %d", len(got.Accesses), cap(got.Accesses), cap(want.Accesses))
	}
	unsized, err := history.Read(io.MultiReader(bytes.NewReader(b.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if cap(unsized.Accesses) == cap(got.Accesses) {
		t.Fatalf("input without Len also ended at cap %d: the test cannot tell reservation from regrowth", cap(got.Accesses))
	}
}

// TestPipeInputUnsized: a pipe, like stdin from `sweep | scchk`, has no
// size to offer and is read as it is.
func TestPipeInputUnsized(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if in := sized(r); in != io.ReadCloser(r) {
		t.Fatalf("a pipe was wrapped: %T", in)
	}
}
