package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bulksc/internal/history"
)

// TestTimelineGoldens pins bulksim -timeline's whole output, lanes and
// summary included, to what it printed when the timeline was recorded
// inside the simulator core rather than rendered from the history export.
func TestTimelineGoldens(t *testing.T) {
	for _, app := range []string{"radiosity", "ocean"} {
		want, err := os.ReadFile("testdata/" + app + "-15000.golden")
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-app", app, "-work", "15000", "-timeline"}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d: %s", app, code, errb.String())
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%s: output differs from the golden\n got:\n%s\nwant:\n%s", app, got, want)
		}
	}
}

// TestTimelineLanesRendering renders a hand-written event-mode stream, the
// P lane's only coverage: the golden runs never pre-arbitrate. Cells
// sharing a bucket show the higher-ranked glyph whatever the record order:
// s over C on p0, S over C and s on p1, P over C on p0.
func TestTimelineLanesRendering(t *testing.T) {
	const src = `{"kind":"header","version":1,"procs":2}
{"kind":"chunk","proc":0,"at":10,"seq":1,"order":1,"ops":[]}
{"kind":"chunk","proc":0,"at":5,"seq":2,"order":2,"ops":[]}
{"kind":"squash","proc":0,"at":6,"victims":1,"instrs":7}
{"kind":"squash","proc":1,"at":20,"victims":2,"instrs":50,"genuine":true}
{"kind":"chunk","proc":1,"at":21,"seq":1,"order":3,"ops":[]}
{"kind":"squash","proc":1,"at":22,"victims":1,"instrs":3}
{"kind":"squash","proc":1,"at":30,"victims":1,"instrs":20}
{"kind":"prearb","proc":0,"at":40}
{"kind":"chunk","proc":0,"at":41,"seq":3,"order":4,"ops":[]}
{"kind":"chunk","proc":1,"at":49,"seq":2,"order":5,"ops":[]}
`
	h, err := history.Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	const want = `timeline 0..49 cycles (C=commit, s=aliased squash, S=true squash, P=pre-arb)
p0  |.sC.....P.|
p1  |....S.s..C|

proc    commits  squashes   prearbs wastedInstrs
p0            3         1         1            7
p1            2         3         0           73
`
	var out strings.Builder
	renderTimeline(&out, h, 10)
	if out.String() != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", out.String(), want)
	}
	out.Reset()
	const empty = `(empty timeline)

proc    commits  squashes   prearbs wastedInstrs
p0            0         0         0            0
`
	renderTimeline(&out, &history.History{Header: history.Header{Procs: 1}}, 10)
	if out.String() != empty {
		t.Errorf("a history with no records renders\n%s\nwant:\n%s", out.String(), empty)
	}
}

// TestBadFlags: every flag value that used to panic or print a
// meaningless run exits 2 before any simulation, naming the problem.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-variant", "nope"}, `unknown variant "nope" (valid: sc, rc, sc++, base, dypvt, exact, stpvt)`},
		{[]string{"-app", "nope"}, `unknown application "nope"`},
		{[]string{"-procs", "0"}, "procs 0 out of range [1,1024]"},
		{[]string{"-procs", "2000"}, "procs 2000 out of range [1,1024]"},
		{[]string{"-work", "-5"}, "work must be positive, got -5"},
		{[]string{"-work", "0"}, "work must be positive, got 0"},
		{[]string{"radix"}, `unexpected arguments ["radix"]`},
		{[]string{"-zap"}, "flag provided but not defined: -zap"},
	} {
		var out, errb bytes.Buffer
		code := run(tc.args, &out, &errb)
		if code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				tc.args, code, out.String(), errb.String(), tc.want)
		}
	}
}
