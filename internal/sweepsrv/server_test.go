package sweepsrv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testWork is the per-thread instruction budget used by most tests: small
// enough that a single-app job completes in tens of milliseconds, large
// enough that the simulation is non-trivial (barrier phases, chunk commits).
const testWork = 1500

// newTestServer boots a Server behind an httptest listener and tears both
// down when the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck // best-effort teardown
	})
	return srv, ts
}

// submit POSTs body to /sweep and decodes the response.
func submit(t *testing.T, base, body string) (int, SubmitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp.StatusCode, sub, resp.Header
}

// waitTerminal polls GET /result/{id} until the job leaves queued/running,
// returning the terminal envelope.
func waitTerminal(t *testing.T, base, id string) ResultEnvelope {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		env, code := getResult(t, base, id)
		if code == http.StatusOK {
			return env
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in time", id)
	return ResultEnvelope{}
}

func getResult(t *testing.T, base, id string) (ResultEnvelope, int) {
	t.Helper()
	resp, err := http.Get(base + "/result/" + id)
	if err != nil {
		t.Fatalf("GET /result/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var env ResultEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode result envelope: %v", err)
	}
	return env, resp.StatusCode
}

func getMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// readSSE reads the whole stream (it closes at the job's terminal event)
// and parses the SSE framing back into Events.
func readSSE(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/stream/" + id)
	if err != nil {
		t.Fatalf("GET /stream/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q, want text/event-stream", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var evName string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if ev.Event != evName {
				t.Fatalf("SSE event name %q does not match data event %q", evName, ev.Event)
			}
			evs = append(evs, ev)
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return evs
}

// TestSubmitStreamResult is the core end-to-end path: submit a job, follow
// its SSE progress stream to the terminal event, then fetch the result and
// cross-check it against the streamed rows.
func TestSubmitStreamResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub, _ := submit(t, ts.URL, fmt.Sprintf(`{"exp":"fig9","apps":["radix"],"work":%d}`, testWork))
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	if sub.Status != StatusQueued || sub.Cache != "miss" || sub.ID == "" || len(sub.Key) != 64 {
		t.Fatalf("submit response %+v: want queued/miss with id and 64-hex key", sub)
	}

	evs := readSSE(t, ts.URL, sub.ID)
	if len(evs) < 3 {
		t.Fatalf("stream delivered %d events, want at least queued+rows+done: %+v", len(evs), evs)
	}
	if evs[0].Event != "status" || evs[0].Status != StatusQueued {
		t.Errorf("first event %+v, want status=queued", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Event != "done" || last.Status != StatusDone || last.Cache != "miss" || last.Error != "" {
		t.Fatalf("terminal event %+v, want done/done/miss", last)
	}
	var rows, running int
	for _, ev := range evs {
		switch {
		case ev.Event == "status" && ev.Status == StatusRunning:
			running++
		case ev.Event == "row":
			rows++
			if ev.App != "radix" || ev.Key == "" || ev.Total <= 0 || len(ev.Hash) != 16 {
				t.Errorf("malformed row event %+v", ev)
			}
		}
	}
	if running != 1 {
		t.Errorf("saw %d running transitions, want exactly 1", running)
	}
	if rows == 0 {
		t.Fatal("stream delivered no row events")
	}

	env := waitTerminal(t, ts.URL, sub.ID)
	if env.Status != StatusDone || env.Cache != "miss" || env.Error != "" {
		t.Fatalf("result envelope %+v, want done/miss", env)
	}
	var out JobOutput
	if err := json.Unmarshal(env.Result, &out); err != nil {
		t.Fatalf("result payload does not parse as JobOutput: %v", err)
	}
	if out.Exp != "fig9" || out.Cells != rows || len(out.Hash) != 16 || out.Table == "" {
		t.Fatalf("JobOutput{Exp:%q Cells:%d Hash:%q}: want fig9 with %d cells (one per streamed row) and a 16-hex hash",
			out.Exp, out.Cells, out.Hash, rows)
	}
	// A late subscriber replays the full history even though the job is
	// long finished.
	replay := readSSE(t, ts.URL, sub.ID)
	if len(replay) != len(evs) {
		t.Fatalf("replayed stream has %d events, original had %d", len(replay), len(evs))
	}
}

// TestCacheHitByteIdentical pins the content-addressing contract: an
// identical config submitted again (spelled differently in JSON) is served
// from the cache byte-identically, with zero additional simulation cells.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	first := fmt.Sprintf(`{"exp":"fig10","apps":["radix"],"work":%d}`, testWork)
	code, sub1, _ := submit(t, ts.URL, first)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", code)
	}
	env1 := waitTerminal(t, ts.URL, sub1.ID)
	if env1.Status != StatusDone {
		t.Fatalf("first job ended %q (%s), want done", env1.Status, env1.Error)
	}
	cellsBefore := getMetrics(t, ts.URL).CellsExecuted
	if cellsBefore == 0 {
		t.Fatal("first run executed zero cells?")
	}

	// Same canonical config: different field order, whitespace and
	// explicit defaults.
	second := fmt.Sprintf(`{ "work": %d, "seed": 1, "apps": ["radix"], "exp": "FIG10" }`, testWork)
	code, sub2, _ := submit(t, ts.URL, second)
	if code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d, want 200 (cache hit is already terminal)", code)
	}
	if sub2.Cache != "hit" || sub2.Status != StatusDone {
		t.Fatalf("second submit %+v, want status=done cache=hit", sub2)
	}
	if sub2.Key != sub1.Key {
		t.Fatalf("canonically identical configs got different keys:\n  %s\n  %s", sub1.Key, sub2.Key)
	}
	if sub2.ID == sub1.ID {
		t.Fatal("cache hit reused the original job id; hits must be distinct jobs")
	}

	env2 := waitTerminal(t, ts.URL, sub2.ID)
	if env2.Cache != "hit" || env2.Status != StatusDone {
		t.Fatalf("cached envelope %+v, want done/hit", env2)
	}
	if !bytes.Equal(env1.Result, env2.Result) {
		t.Fatalf("cache hit is not byte-identical:\n first: %s\nsecond: %s", env1.Result, env2.Result)
	}

	m := getMetrics(t, ts.URL)
	if m.CellsExecuted != cellsBefore {
		t.Fatalf("cache hit executed cells: %d -> %d; a hit must run NOTHING", cellsBefore, m.CellsExecuted)
	}
	if m.ServedFromCache != 1 || m.Cache.Hits != 1 {
		t.Fatalf("metrics %+v: want served_from_cache=1, cache.hits=1", m)
	}
	// The hit job's stream is a two-event history: born queued, immediately
	// done with the cache disposition.
	evs := readSSE(t, ts.URL, sub2.ID)
	last := evs[len(evs)-1]
	if last.Event != "done" || last.Cache != "hit" {
		t.Fatalf("cached job terminal event %+v, want done with cache=hit", last)
	}
	for _, ev := range evs {
		if ev.Event == "row" {
			t.Fatalf("cached job streamed a row event %+v; hits must not re-run", ev)
		}
	}
}

// TestBackpressure429 pins the queue-full contract: with a 1-deep queue and
// one busy worker, overflow submissions answer 429 with a Retry-After hint
// and never block — and every job that WAS accepted still terminates.
func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfterSeconds: 3})
	var accepted []string
	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		body := fmt.Sprintf(`{"exp":"fig9","apps":["radix"],"work":%d,"seed":%d}`, testWork, i+1)
		start := time.Now()
		code, sub, hdr := submit(t, ts.URL, body)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, sub.ID)
		case http.StatusTooManyRequests:
			saw429 = true
			if got := hdr.Get("Retry-After"); got != "3" {
				t.Errorf("429 Retry-After = %q, want %q", got, "3")
			}
			// "Never block": rejection must be immediate, not queued-then-
			// failed. Generous bound — this is an in-process HTTP call.
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("429 took %v; a full queue must reject immediately", d)
			}
		default:
			t.Fatalf("submit %d: unexpected HTTP %d", i, code)
		}
	}
	if !saw429 {
		t.Fatal("never saw a 429 from a 1-deep queue with a busy worker")
	}
	if len(accepted) == 0 {
		t.Fatal("saw 429 before any job was accepted?")
	}
	for _, id := range accepted {
		env := waitTerminal(t, ts.URL, id)
		if env.Status != StatusDone {
			t.Errorf("accepted job %s ended %q (%s), want done", id, env.Status, env.Error)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.RejectedBusy == 0 {
		t.Error("metrics rejected_queue_full is 0 despite an observed 429")
	}
}

// TestInvalidRequests covers the 400 surface: malformed JSON, unknown
// fields, unknown experiments/apps, bad ranges, and the MaxWork cap.
func TestInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxWork: 10_000})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"exp":`},
		{"unknown field", `{"exp":"fig9","bogus":1}`},
		{"removed cold hint", `{"exp":"fig9","cold":true}`},
		{"unknown exp", `{"exp":"fig99"}`},
		{"unknown app", `{"exp":"fig9","apps":["quake"]}`},
		{"negative work", `{"exp":"fig9","work":-5}`},
		{"work over cap", `{"exp":"fig9","work":20000}`},
		{"procs out of range", `{"exp":"scaling","procs":[0]}`},
		{"arbiters out of range", `{"exp":"arbiters","arbiters":[9999]}`},
		{"bad fault campaign", `{"exp":"fig9","faults":"meteor-strike"}`},
		{"duplicate app", `{"exp":"table4","apps":["radix","radix"],"work":1500}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := submit(t, ts.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", code)
			}
		})
	}
	m := getMetrics(t, ts.URL)
	if m.RejectedInvalid != uint64(len(cases)) {
		t.Errorf("rejected_invalid = %d, want %d", m.RejectedInvalid, len(cases))
	}
	if m.CellsExecuted != 0 {
		t.Errorf("invalid requests executed %d cells", m.CellsExecuted)
	}
}

// TestNDJSONStream checks the ?format=ndjson variant: one JSON event per
// line, same history, terminal close.
func TestNDJSONStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub, _ := submit(t, ts.URL, fmt.Sprintf(`{"exp":"fig11","apps":["fft"],"work":%d}`, testWork))
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	resp, err := http.Get(ts.URL + "/stream/" + sub.ID + "?format=ndjson")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 || evs[len(evs)-1].Event != "done" {
		t.Fatalf("NDJSON stream ended without a terminal event: %+v", evs)
	}
	if evs[len(evs)-1].Status != StatusDone {
		t.Fatalf("job ended %q: %s", evs[len(evs)-1].Status, evs[len(evs)-1].Error)
	}
}

// TestCancel covers DELETE /job/{id} for both a queued and a running job.
func TestCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// j1 occupies the only worker well past both DELETEs below (generous
	// multi-cell budget); j2 sits behind it in the queue.
	code, j1, _ := submit(t, ts.URL, `{"exp":"scaling","apps":["radix"],"procs":[8,16,64],"work":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit j1: HTTP %d", code)
	}
	code, j2, _ := submit(t, ts.URL, fmt.Sprintf(`{"exp":"fig9","apps":["lu"],"work":%d}`, testWork))
	if code != http.StatusAccepted {
		t.Fatalf("submit j2: HTTP %d", code)
	}

	// Cancel the queued job: terminal immediately, and the worker that
	// later dequeues it must skip it (j2 never runs a cell for app lu).
	doDelete(t, ts.URL, j2.ID)
	env := waitTerminal(t, ts.URL, j2.ID)
	if env.Status != StatusCanceled {
		t.Fatalf("queued job after cancel: %q, want canceled", env.Status)
	}

	// Cancel the running job: the experiments layer observes the context
	// at the next cell boundary.
	doDelete(t, ts.URL, j1.ID)
	env = waitTerminal(t, ts.URL, j1.ID)
	if env.Status != StatusCanceled && env.Status != StatusDone {
		t.Fatalf("running job after cancel: %q (%s), want canceled (or done if it won the race)", env.Status, env.Error)
	}
	// Whatever the race outcome, the service must be healthy afterwards.
	code, j3, _ := submit(t, ts.URL, fmt.Sprintf(`{"exp":"fig9","apps":["fft"],"work":%d}`, testWork))
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: HTTP %d", code)
	}
	if env := waitTerminal(t, ts.URL, j3.ID); env.Status != StatusDone {
		t.Fatalf("post-cancel job ended %q (%s), want done", env.Status, env.Error)
	}
}

func doDelete(t *testing.T, base, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/job/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /job/%s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /job/%s: HTTP %d, want 202", id, resp.StatusCode)
	}
}

// TestHealthzAndUnknownIDs covers the small endpoints.
func TestHealthzAndUnknownIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h) //nolint:errcheck
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Fatalf("healthz %v, want ok", h)
	}
	for _, path := range []string{"/result/j-999999", "/stream/j-999999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFinishCountsBeforePublishing: every job a client observes as done is
// already counted in Completed. finish updates the metrics before the
// terminal state is visible, so while the server's counters are locked a
// finishing job must not yet look done.
func TestFinishCountsBeforePublishing(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	js := newJobState("key", Request{})
	srv.mu.Lock()
	srv.registerLocked(js)
	go srv.finish(js, StatusDone, "miss", nil, "")
	select {
	case <-js.done:
		srv.mu.Unlock()
		t.Fatal("job observable as done before the metrics counted it")
	case <-time.After(50 * time.Millisecond):
	}
	srv.mu.Unlock()
	<-js.done
	if c := srv.MetricsSnapshot().Completed; c != 1 {
		t.Fatalf("metrics count %d completed after the job finished, want 1", c)
	}
}
