package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the helper process: when SWEEPD_HELPER_PROCESS is
// set, the test binary IS sweepd (it calls run with the binary's argv), so
// the SIGTERM test exercises the real signal path of a real process —
// goroutine-level shutdown tests live in internal/sweepsrv; this one pins
// the process-level contract: exit code 0 after a clean drain.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEPD_HELPER_PROCESS") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSIGTERMGracefulExit boots sweepd as a child process, submits a job,
// sends SIGTERM while the job is mid-sweep, and asserts: the job drains to
// completion (its stream delivers done/done), the process logs the drain,
// and it exits 0 within the deadline.
func TestSIGTERMGracefulExit(t *testing.T) {
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4", "-drain-timeout", "120")
	cmd.Env = append(os.Environ(), "SWEEPD_HELPER_PROCESS=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op after a clean Wait

	// The listen line is a documented contract; scrape the resolved port.
	sc := bufio.NewScanner(stdout)
	base := ""
	var lines []string
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if strings.HasPrefix(line, "sweepd: listening on ") {
			base = "http://" + strings.Fields(line)[3]
			break
		}
	}
	if base == "" {
		t.Fatalf("never saw the listen line; output so far: %q, stderr: %s", lines, stderr.String())
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	outRest := make(chan []string, 1)
	go func() {
		var rest []string
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		outRest <- rest
	}()

	// A multi-cell job: SIGTERM will land while it is mid-sweep.
	resp, err := http.Post(base+"/sweep", "application/json",
		strings.NewReader(`{"exp":"scaling","apps":["radix"],"procs":[8,16],"work":20000}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	// Follow the job's stream; once it reports running, fire SIGTERM.
	stream, err := http.Get(base + "/stream/" + sub.ID + "?format=ndjson")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer stream.Body.Close()
	events := bufio.NewScanner(stream.Body)
	signaled := false
	final := ""
	for events.Scan() {
		var ev struct {
			Event  string `json:"event"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(events.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", events.Text(), err)
		}
		if !signaled && (ev.Status == "running" || ev.Event == "row") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatalf("SIGTERM: %v", err)
			}
			signaled = true
		}
		if ev.Event == "done" {
			final = ev.Status
			if ev.Status != "done" {
				t.Errorf("job ended %q (%s); SIGTERM mid-sweep must drain it to completion", ev.Status, ev.Error)
			}
			break
		}
	}
	if !signaled {
		t.Fatal("stream ended before the job ever ran")
	}
	if final == "" {
		t.Fatal("stream closed without a terminal event")
	}

	// The process must exit 0 within the deadline.
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("sweepd exited non-zero after SIGTERM: %v, stderr: %s", err, stderr.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sweepd did not exit within the deadline after SIGTERM")
	}
	rest := <-outRest
	tail := strings.Join(rest, "\n")
	if !strings.Contains(tail, "sweepd: drained, exiting") {
		t.Errorf("missing drain log line; stdout tail:\n%s", tail)
	}
}

// TestBadFlags: flag errors exit 2 without touching the network.
func TestBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("run with bad flag = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "definitely-not-a-flag") {
		t.Errorf("usage error not reported: %s", errBuf.String())
	}
}

// TestListenFailure: an unbindable address is a clean error exit, not a
// panic or a hang.
func TestListenFailure(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &errBuf); code != 1 {
		t.Fatalf("run with bad addr = %d, want 1", code)
	}
	if errBuf.Len() == 0 {
		t.Error("listen failure produced no error output")
	}
}
