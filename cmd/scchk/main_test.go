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

	"bulksc"
	"bulksc/internal/history"
	"bulksc/internal/history/explore"
	"bulksc/internal/history/gk"
	"bulksc/internal/workload"
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

// TestSearchMachineExports runs -search on histories the simulator
// exports, not hand-written ones: every litmus suite kernel under sc, rc,
// sc++ and dypvt over a range of paddings and seeds. -search must find an
// export unserializable exactly when the outcome it records (explore's
// Observed) lies outside the kernel's enumerated SC outcomes: RC, and
// SC++ (ROADMAP item 12), let both SB loads pass the other thread's store.
func TestSearchMachineExports(t *testing.T) {
	dir := t.TempDir()
	unserializable := map[string]int{}
	for _, k := range workload.LitmusSuite() {
		p, err := explore.FromProgram(k.Build(0))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := explore.Explore(p, explore.ModelSC, explore.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{"sc", "rc", "sc++", "dypvt"} {
			for pad := 0; pad <= 27; pad += 3 {
				for seed := int64(1); seed <= 5; seed++ {
					label := fmt.Sprintf("%s/%s pad %d seed %d", k.Name, variant, pad, seed)
					path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-%d.ndjson", k.Name, variant, pad, seed))
					var buf bytes.Buffer
					cfg := bulksc.Variant("", variant)
					cfg.Work, cfg.Procs, cfg.Seed, cfg.WarmupFrac = 0, 0, seed, 0
					cfg.TraceWriter = &buf
					if _, err := bulksc.RunProgram(cfg, k.Build(pad)); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					h, err := history.Read(&buf)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					o, err := p.Observed(h)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := 0
					if !sc.Has(o.Key()) {
						want = 1
						unserializable[k.Name+"/"+variant]++
					}
					var out, errb bytes.Buffer
					if code := run([]string{"-q", "-search", path}, &out, &errb); code != want {
						t.Errorf("%s: outcome %s, exit %d, want %d (stderr %q)", label, o.Key(), code, want, errb.String())
					}
				}
			}
		}
	}
	if want := map[string]int{"SB/rc": 50, "SB/sc++": 50}; !reflect.DeepEqual(unserializable, want) {
		t.Errorf("unserializable exports per kernel/variant = %v, want %v", unserializable, want)
	}
}

// TestEventModeExportChecksAlike: one radix BulkSC run exported plain and
// in event mode (commit cycles on chunk records, squash and prearb
// records between them) gets the same verdicts from -q and -q -search and
// the same gk.Check counts: the checkers ignore events and commit cycles.
func TestEventModeExportChecksAlike(t *testing.T) {
	dir := t.TempDir()
	type verdict struct{ check, search, chunks, events int }
	var got [2]verdict
	for i, events := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("radix-%v.ndjson", events))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := bulksc.Variant("radix", "dypvt")
		cfg.Work = 1000
		cfg.TraceWriter, cfg.TraceEvents = f, events
		_, err = bulksc.Run(cfg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		got[i].check = run([]string{"-q", path}, &out, &errb)
		got[i].search = run([]string{"-q", "-search", path}, &out, &errb)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := history.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		r := gk.Check(h, gk.Options{})
		if int(r.Accesses()) != h.Ops() || r.Total() != 0 {
			t.Errorf("events=%v: gk.Check examined %d of %d ops, %d violations", events, r.Accesses(), h.Ops(), r.Total())
		}
		got[i].chunks, got[i].events = r.Chunks(), len(h.Events)
	}
	if got[0].check != 0 || got[0].search != 0 {
		t.Fatalf("plain export: -q exit %d, -q -search exit %d, want 0 and 0", got[0].check, got[0].search)
	}
	if got[1].events == 0 {
		t.Fatal("event-mode export holds no event records")
	}
	got[1].events = 0
	if got[0] != got[1] {
		t.Errorf("plain export %+v, event-mode export %+v", got[0], got[1])
	}
}
