package sweepsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bulksc/experiments"
)

// TestConcurrentMixedLoad is the warm-pool soak (run it under -race): many
// client goroutines fire a mixed config stream at a 2-worker pool behind a
// deliberately small queue. It pins four contracts at once:
//
//  1. a full queue answers 429 and never blocks (client timeouts enforce it);
//  2. every accepted job terminates;
//  3. identical configs always produce the identical job hash regardless of
//     which warm worker ran them or what ran on that worker before;
//  4. warm-pool reuse never cross-contaminates: each unique config's served
//     hash equals the golden hash of the same config run on a fresh
//     experiments.Worker, a machine no other job has touched, outside the
//     server.
func TestConcurrentMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; the full check gate runs it without -short")
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 3})

	// Six distinct configs across four experiment shapes, each submitted
	// several times from different goroutines (duplicates are cache-hit
	// and contamination probes at once).
	uniq := []Request{
		{Exp: "fig9", Apps: []string{"radix"}, Work: testWork},
		{Exp: "fig9", Apps: []string{"lu"}, Work: testWork, Seed: 3},
		{Exp: "fig10", Apps: []string{"fft"}, Work: testWork},
		{Exp: "table4", Apps: []string{"water-sp"}, Work: testWork},
		{Exp: "fig11", Apps: []string{"ocean"}, Work: testWork},
		{Exp: "scaling", Apps: []string{"radix"}, Procs: []int{8, 16}, Work: testWork},
	}
	const copies = 4 // 24 submissions total
	var schedule []Request
	for c := 0; c < copies; c++ {
		schedule = append(schedule, uniq...)
	}

	// A bounded client timeout turns "submit blocked on a full queue" into
	// a hard test failure instead of a hang.
	client := &http.Client{Timeout: 30 * time.Second}
	type outcome struct {
		req     Request
		hash    string
		status  string
		hit     bool
		retried int
		err     error
	}
	outcomes := make([]outcome, len(schedule))
	var wg sync.WaitGroup
	const goroutines = 8
	next := make(chan int)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = runOne(client, ts.URL, schedule[i])
			}
		}()
	}
	for i := range schedule {
		next <- i
	}
	close(next)
	wg.Wait()

	var retried, hits int
	hashes := map[string]map[string]bool{} // key -> set of observed job hashes
	for i, oc := range outcomes {
		if oc.err != nil {
			t.Fatalf("submission %d (%+v): %v", i, schedule[i], oc.err)
		}
		if oc.status != StatusDone {
			t.Fatalf("submission %d (%+v) ended %q, want done", i, schedule[i], oc.status)
		}
		retried += oc.retried
		if oc.hit {
			hits++
		}
		key, err := oc.req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if hashes[key] == nil {
			hashes[key] = map[string]bool{}
		}
		hashes[key][oc.hash] = true
	}
	t.Logf("observed %d 429 rejections across %d submissions", retried, len(schedule))

	// Contract 3: one hash per unique config, no matter the interleaving.
	for key, set := range hashes {
		if len(set) != 1 {
			t.Errorf("config %s produced %d distinct hashes %v: warm execution is not deterministic", key, len(set), set)
		}
	}

	// Contract 4: the fresh-machine goldens. Run each unique config on a
	// new Worker, bypassing the server entirely, and compare hashes.
	for _, r := range uniq {
		canon, err := r.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := canon.Key()
		if err != nil {
			t.Fatal(err)
		}
		out, err := runExperiment(canon, experiments.Params{Worker: experiments.NewWorker()}, nil)
		if err != nil {
			t.Fatalf("fresh-machine golden for %+v: %v", r, err)
		}
		set := hashes[key]
		if len(set) == 0 {
			t.Fatalf("no served hash recorded for %+v", r)
		}
		if !set[out.Hash] {
			t.Errorf("POOL CONTAMINATION for %+v: warm pool served hash set %v, fresh-machine golden is %s",
				r, set, out.Hash)
		}
	}

	// The metrics must reconcile with what the clients saw: every
	// submission either completed or was answered from the cache, the
	// server's cache-hit and queue-full counts equal the clients', and the
	// queue is empty again.
	m := getMetrics(t, ts.URL)
	if got := m.Completed; got != uint64(len(schedule)) {
		t.Errorf("completed = %d, want %d (every accepted job terminates)", got, len(schedule))
	}
	if m.ServedFromCache == 0 {
		t.Error("no cache hits across duplicate submissions — content addressing is dead under load")
	}
	if m.ServedFromCache != uint64(hits) {
		t.Errorf("server counted %d cache hits, clients observed %d", m.ServedFromCache, hits)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after the soak, want 0", m.QueueDepth)
	}
	if m.RejectedBusy != uint64(retried) {
		t.Errorf("server counted %d queue-full rejections, clients observed %d", m.RejectedBusy, retried)
	}
}

// runOne submits req (retrying 429s), waits for the terminal envelope and
// extracts the job hash.
func runOne(client *http.Client, base string, req Request) (oc struct {
	req     Request
	hash    string
	status  string
	hit     bool
	retried int
	err     error
}) {
	oc.req = req
	body, err := json.Marshal(req)
	if err != nil {
		oc.err = err
		return
	}
	var sub SubmitResponse
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/sweep", "application/json", strings.NewReader(string(body)))
		if err != nil {
			oc.err = err
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			oc.retried++
			if attempt > 10_000 {
				oc.err = fmt.Errorf("still 429 after %d attempts", attempt)
				return
			}
			time.Sleep(time.Duration(attempt%7+1) * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			oc.err = err
			return
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			oc.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
			return
		}
		break
	}
	oc.hit = sub.Cache == "hit"
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/result/" + sub.ID)
		if err != nil {
			oc.err = err
			return
		}
		var env ResultEnvelope
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			oc.err = err
			return
		}
		if code == http.StatusOK {
			oc.status = env.Status
			if env.Status == StatusDone {
				var out JobOutput
				if err := json.Unmarshal(env.Result, &out); err != nil {
					oc.err = err
					return
				}
				oc.hash = out.Hash
			} else {
				oc.err = fmt.Errorf("job %s: %s", sub.ID, env.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	oc.err = fmt.Errorf("job %s never terminated", sub.ID)
	return
}
