package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bulksc/experiments"
	"bulksc/internal/history"
	"bulksc/internal/sweepsrv"
)

// TestUnknownFlagValuesExitNonZero pins the input-hardening contract: an
// unknown -exp, -faults or -apps value must exit non-zero before any
// simulation starts, and the diagnostic must list the valid values.
func TestUnknownFlagValuesExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings that must appear on stderr
	}{
		{
			name: "unknown experiment",
			args: []string{"-exp", "fig99"},
			want: []string{`unknown experiment "fig99"`, "fig9", "table3", "faults"},
		},
		{
			name: "unknown campaign",
			args: []string{"-exp", "fig9", "-faults", "chaos-monkey"},
			want: []string{`unknown campaign "chaos-monkey"`, "none", "denial-storm", "alias-amplify", "delay-jitter"},
		},
		{
			name: "unknown app",
			args: []string{"-exp", "fig9", "-apps", "doom"},
			want: []string{`unknown application "doom"`, "radix", "sjbb2k"},
		},
		{
			name: "bad procs list",
			args: []string{"-exp", "scaling", "-procs", "8,zap"},
			want: []string{`-procs value "zap"`},
		},
		{
			name: "oversized procs",
			args: []string{"-exp", "scaling", "-procs", "2048"},
			want: []string{`-procs value "2048"`},
		},
		{
			name: "duplicate app",
			args: []string{"-exp", "table4", "-apps", "radix,radix"},
			want: []string{`duplicate application "radix"`},
		},
		{
			name: "procs in exponent form",
			args: []string{"-exp", "scaling", "-procs", "1e2"},
			want: []string{`-procs value "1e2"`},
		},
		{
			name: "procs with trailing junk",
			args: []string{"-exp", "scaling", "-procs", "16x"},
			want: []string{`-procs value "16x"`},
		},
		{
			name: "procs separated by a space",
			args: []string{"-exp", "scaling", "-procs", "16 32"},
			want: []string{`-procs value "16 32"`},
		},
		{
			name: "trace with two apps",
			args: []string{"-exp", "trace", "-apps", "radix,fft"},
			want: []string{"-exp trace exports one run", "got 2 and 0"},
		},
		{
			name: "trace with two procs values",
			args: []string{"-exp", "trace", "-procs", "8,16"},
			want: []string{"-exp trace exports one run", "got 0 and 2"},
		},
		{
			name: "negative parallelism",
			args: []string{"-exp", "fig9", "-parallel", "-3"},
			want: []string{"-parallel must be >= 0"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(errb.String(), w) {
					t.Errorf("stderr missing %q:\n%s", w, errb.String())
				}
			}
			if out.Len() != 0 {
				t.Errorf("stdout should be empty on a flag error, got:\n%s", out.String())
			}
		})
	}
}

// TestUnknownFlagExitsNonZero: a flag that does not exist at all also
// fails fast (the flag package prints usage to stderr).
func TestUnknownFlagExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-frobnicate"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("stderr missing flag diagnostic:\n%s", errb.String())
	}
}

// TestTraceExportsProcs: a single -procs value sizes the exported run, so
// the history's header and its records name that many processors.
func TestTraceExportsProcs(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "trace", "-apps", "radix", "-work", "1000", "-procs", "16", "-trace-out", "-"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errb.String())
	}
	h, err := history.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	maxProc := 0
	for _, c := range h.Chunks {
		maxProc = max(maxProc, c.Proc)
	}
	if h.Header.Procs != 16 || maxProc < 8 {
		t.Fatalf("exported header claims %d procs and the highest committing proc is %d, want 16 and >= 8",
			h.Header.Procs, maxProc)
	}
}

// TestSmallSweepRuns exercises one real experiment end to end through the
// CLI path — with a fault campaign active — so the whole wiring
// (flags → Params → plan construction → report) stays covered.
func TestSmallSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep run in -short mode")
	}
	var out, errb bytes.Buffer
	code := run([]string{
		"-exp", "fig9", "-apps", "radix", "-work", "4000",
		"-faults", "delay-jitter", "-fault-seed", "7", "-sccheck",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 9") || !strings.Contains(out.String(), "radix") {
		t.Errorf("unexpected report output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "parallel workers") || !strings.Contains(out.String(), "warm machine reuse") {
		t.Errorf("run header missing execution mode:\n%s", out.String())
	}
}

// TestColdAndWarmSweepsAgree pins the -cold escape hatch: the same tiny
// sweep run cold and warm must produce byte-identical reports (the
// execution-mode header aside), because warm machine reuse is required to
// be behavior-neutral.
func TestColdAndWarmSweepsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison in -short mode")
	}
	body := func(args ...string) string {
		var out, errb bytes.Buffer
		base := []string{"-exp", "fig9", "-apps", "radix", "-work", "3000", "-parallel", "2"}
		if code := run(append(base, args...), &out, &errb); code != 0 {
			t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
		}
		// Drop the header line, which names the mode by design.
		_, rest, _ := strings.Cut(out.String(), "\n\n")
		return rest
	}
	warm := body()
	cold := body("-cold")
	if warm != cold {
		t.Errorf("cold and warm sweeps disagree:\nwarm:\n%s\ncold:\n%s", warm, cold)
	}
}

// TestCLIAndServiceAgree runs every catalog experiment through the CLI and
// through the sweep service and requires the same table text: both are
// clients of one catalog, so defaults, dispatch and formatting cannot
// drift between them. The scaling table's last two columns are host
// wall-clock measurements and are masked.
func TestCLIAndServiceAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	srv := sweepsrv.NewServer(sweepsrv.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	h := srv.Handler()
	serve := func(method, url string, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}
	mask := func(exp, table string) string {
		if exp != "scaling" {
			return table
		}
		var b strings.Builder
		for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
			f := strings.Fields(line)
			b.WriteString(strings.Join(f[:len(f)-2], " ") + "\n")
		}
		return b.String()
	}

	for _, e := range experiments.Catalog() {
		t.Run(e.Name, func(t *testing.T) {
			args := []string{"-exp", e.Name, "-apps", "radix", "-work", "1000"}
			req := sweepsrv.Request{Exp: e.Name, Apps: []string{"radix"}, Work: 1000}
			switch e.Name {
			case "scaling":
				args = append(args, "-procs", "8,16")
				req.Procs = []int{8, 16}
			case "arbiters":
				args = append(args, "-procs", "16")
				req.Procs = []int{16}
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("sweep %v: exit %d: %s", args, code, errb.String())
			}
			// Drop the run header and the experiment heading; keep the table.
			_, report, _ := strings.Cut(out.String(), "\n\n")
			_, cliTable, _ := strings.Cut(report, "\n")
			cliTable = strings.TrimSuffix(cliTable, "\n")
			if !strings.Contains(cliTable, "radix") {
				t.Fatalf("no radix row in the CLI report:\n%s", out.String())
			}

			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := serve("POST", "/sweep", string(body))
			var sub sweepsrv.SubmitResponse
			if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
				t.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body.String())
			}
			serve("GET", "/stream/"+sub.ID+"?format=ndjson", "") // returns once the job is terminal
			var env sweepsrv.ResultEnvelope
			var job sweepsrv.JobOutput
			rec = serve("GET", "/result/"+sub.ID, "")
			if json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Status != sweepsrv.StatusDone ||
				json.Unmarshal(env.Result, &job) != nil {
				t.Fatalf("result: HTTP %d: %s", rec.Code, rec.Body.String())
			}
			if got, want := mask(e.Name, job.Table), mask(e.Name, cliTable); got != want {
				t.Errorf("service table differs from the CLI's:\nservice:\n%s\ncli:\n%s", got, want)
			}
		})
	}
}
