package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"bulksc"
	"bulksc/internal/sweepsrv"
)

// The sweepd-open traffic: an open loop at a fixed rate from one process.
// 80% of requests are fresh single-app fig9/table4/scaling jobs with seeds
// drawn from the workload seed, so they miss both the result cache and the
// workers' program memos; the rest repeat an earlier request exactly and
// are served from the cache.
const (
	// sweepRate is the offered load in requests/s, about 10% of the miss
	// capacity of a 2-worker server on a 2-CPU host (about 40 misses/s at
	// sweepWork, closed loop, measured with -capacity). At a half and at a
	// quarter of the capacity, queueing amplified the host's own speed
	// changes until p50 and p95 moved by 30 to 50% between runs.
	sweepRate = 5.0
	// sweepWork makes the simulation, not the wake-ups between client,
	// handler, worker and stream, the larger part of a miss: at work 2000
	// a miss cost the same as at 1000, and its latency moved with the
	// host's scheduling delays by 40 to 50% between runs.
	sweepWork = 10000
	// A repeat copies a request sent 10 to 100 slots earlier: late enough
	// that the original has finished, recent enough to sit in the cache.
	repeatMinBack = 10
	repeatMaxBack = 100
	// reqTimeout bounds one request's wait for its terminal result.
	reqTimeout = 60 * time.Second
)

// sweepExpCycle is the experiment order of fresh requests. Its weights put
// the median request (after the 20% of cache hits and the 16% of one-cell
// table4 jobs) in the middle of the scaling jobs and the 95th percentile
// inside the fig9 jobs of the apps with the costliest generation, rather
// than on the edge between two kinds of job, where it jumped between runs.
var sweepExpCycle = []string{"table4", "scaling", "fig9", "scaling", "fig9"}

// sweepReq is one scheduled request; repeatOf is the index of the request
// it repeats, or -1.
type sweepReq struct {
	body     sweepsrv.Request
	repeatOf int
}

// sweepSchedule draws n requests from seed. The mix is stratified so that
// every seed offers the same load: every fifth request is a repeat, fresh
// requests cycle through sweepExpCycle, and their apps through
// seed-shuffled rounds of every app. The seed picks the app order, the
// repeated requests and the simulation seeds.
func sweepSchedule(seed int64, n int, work int) []sweepReq {
	rng := rand.New(rand.NewSource(seed))
	apps := bulksc.Apps()
	out := make([]sweepReq, n)
	fresh := 0
	for i := range out {
		if i >= repeatMinBack && i%5 == 4 {
			lo := i - repeatMaxBack
			if lo < 0 {
				lo = 0
			}
			j := lo + rng.Intn(i-repeatMinBack-lo+1)
			for out[j].repeatOf >= 0 {
				j = out[j].repeatOf
			}
			out[i] = sweepReq{body: out[j].body, repeatOf: j}
			continue
		}
		if fresh%len(apps) == 0 {
			rng.Shuffle(len(apps), func(a, b int) { apps[a], apps[b] = apps[b], apps[a] })
		}
		b := sweepsrv.Request{
			Exp:  sweepExpCycle[fresh%len(sweepExpCycle)],
			Apps: []string{apps[fresh%len(apps)]},
			Work: work,
			Seed: 1 + rng.Int63n(1<<40),
		}
		fresh++
		if b.Exp == "scaling" {
			b.Procs = []int{8, 16}
		}
		out[i] = sweepReq{body: b, repeatOf: -1}
	}
	return out
}

// reqOut is one request's outcome.
type reqOut struct {
	lagNs   int64 // how late the generator sent it
	latNs   int64 // scheduled send → terminal result
	done    bool
	hit     bool
	refused int // HTTP status of a refusal (429, 400, ...), 0 otherwise
	result  []byte
	err     string
}

// server is one in-process sweepd on a loopback listener.
type server struct {
	srv  *sweepsrv.Server
	hs   *http.Server
	base string
}

// bootServer starts a server and sends it one small warm-up job, with a
// seed outside the range the schedule draws from. (One job, not one per
// worker: which worker takes each of several concurrent jobs is a race,
// and it made the boot time bimodal.)
func bootServer(workers int) (*server, error) {
	srv := sweepsrv.NewServer(sweepsrv.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String()}
	go s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	cl := newClient()
	defer cl.CloseIdleConnections()
	warm := sweepReq{body: sweepsrv.Request{Exp: "table4", Apps: []string{"water-sp"}, Work: 1000, Seed: 1 << 41}}
	if o := doRequest(cl, s.base, warm, time.Now()); !o.done {
		s.close()
		return nil, fmt.Errorf("warm-up request: %s", o.err)
	}
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // drains running jobs; the benchmark has recorded all it needs
	_ = s.hs.Close()
}

// newClient returns the load generator's client. Each outstanding job holds
// one connection for its progress stream; idle ones are kept for reuse.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   reqTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
}

// doRequest submits one request at its due time and waits for its
// terminal result on the job's NDJSON progress stream. (Polling /result
// instead makes the client's own CPU use grow with the server's backlog,
// which feeds the backlog on a host with as many CPUs as workers.)
func doRequest(cl *http.Client, base string, rq sweepReq, due time.Time) reqOut {
	var o reqOut
	body, err := json.Marshal(rq.body)
	if err != nil {
		o.err = err.Error()
		return o
	}
	resp, err := cl.Post(base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	var sub sweepsrv.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		o.refused = resp.StatusCode
		o.err = fmt.Sprintf("submit refused: HTTP %d", resp.StatusCode)
		return o
	case derr != nil:
		o.err = "submit response: " + derr.Error()
		return o
	}
	o.hit = resp.StatusCode == http.StatusOK
	if !o.hit {
		if err := awaitDone(cl, base, sub.ID); err != nil {
			o.err = err.Error()
			return o
		}
	}
	o.latNs = time.Since(due).Nanoseconds()
	env, code, err := getResult(cl, base, sub.ID)
	switch {
	case err != nil:
		o.err = err.Error()
	case code != http.StatusOK || env.Status != sweepsrv.StatusDone:
		o.err = fmt.Sprintf("job %s ended %s: %s", sub.ID, env.Status, env.Error)
	default:
		o.done, o.result = true, env.Result
	}
	return o
}

// awaitDone reads a job's progress stream until its terminal event.
func awaitDone(cl *http.Client, base, id string) error {
	resp, err := cl.Get(base + "/stream/" + id + "?format=ndjson")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev sweepsrv.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream %s: %w", id, err)
		}
		if ev.Event == "done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", id, err)
	}
	return fmt.Errorf("stream %s closed before the job finished", id)
}

func getResult(cl *http.Client, base, id string) (*sweepsrv.ResultEnvelope, int, error) {
	resp, err := cl.Get(base + "/result/" + id)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	var env sweepsrv.ResultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, 0, fmt.Errorf("result %s: %w", id, err)
	}
	return &env, resp.StatusCode, nil
}

// phase is one open-loop run against one server.
type phase struct {
	sched   []sweepReq
	outs    []reqOut
	wallNs  int64            // first due time → last terminal result
	qmax    int              // deepest server queue seen after a send
	metrics sweepsrv.Metrics // server counters; cells and cache hits count this phase only
}

func runPhase(s *server, sched []sweepReq, interval time.Duration) *phase {
	ph := &phase{sched: sched, outs: make([]reqOut, len(sched))}
	m0 := s.srv.MetricsSnapshot()
	cl := newClient()
	defer cl.CloseIdleConnections()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due).Nanoseconds()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ph.outs[i] = doRequest(cl, s.base, sched[i], due)
			ph.outs[i].lagNs = lag
		}(i)
		if q := s.srv.MetricsSnapshot().QueueDepth; q > ph.qmax {
			ph.qmax = q
		}
	}
	wg.Wait()
	ph.wallNs = time.Since(start).Nanoseconds()
	// Counters of this phase only: the server has already run its warm-up
	// job.
	ph.metrics = s.srv.MetricsSnapshot()
	ph.metrics.CellsExecuted -= m0.CellsExecuted
	ph.metrics.ServedFromCache -= m0.ServedFromCache
	return ph
}

// check counts the phase's operations and verifies its outputs: every
// result must be well formed, a repeat must carry its original's
// determinism hash, a cache hit its original's exact bytes, and the
// server's cache counter must match the hits the client saw.
func (ph *phase) check(r *result) {
	hits := 0
	for i, o := range ph.outs {
		r.attempted++
		if !o.done {
			r.failed++
			r.noteFailure(o.err)
			continue
		}
		if o.hit {
			hits++
		}
		var out sweepsrv.JobOutput
		if err := json.Unmarshal(o.result, &out); err != nil || out.Cells == 0 || out.Hash == "" {
			r.addWrong("request %d: malformed result", i)
			continue
		}
		j := ph.sched[i].repeatOf
		if j < 0 || !ph.outs[j].done {
			continue
		}
		// A repeat sent while its original still ran is executed again;
		// its rows may then differ in host-time fields, but not its
		// determinism hash. A cache hit must return the original bytes.
		var orig sweepsrv.JobOutput
		switch {
		case o.hit && !bytes.Equal(o.result, ph.outs[j].result):
			r.addWrong("request %d: cache hit for %d returned different bytes", i, j)
		case json.Unmarshal(ph.outs[j].result, &orig) != nil || orig.Hash != out.Hash:
			r.addWrong("request %d: repeat of %d has a different determinism hash", i, j)
		}
	}
	if uint64(hits) != ph.metrics.ServedFromCache {
		r.addWrong("client saw %d cache hits, server counted %d", hits, ph.metrics.ServedFromCache)
	}
}

// missP50ByExp is the median miss latency of each experiment kind.
func (ph *phase) missP50ByExp() map[string]float64 {
	lat := make(map[string][]float64)
	for i, o := range ph.outs {
		if o.done && !o.hit {
			e := ph.sched[i].body.Exp
			lat[e] = append(lat[e], float64(o.latNs)/1e6)
		}
	}
	out := make(map[string]float64)
	for e, xs := range lat {
		out[e] = percentile(xs, 50)
	}
	return out
}

type phaseStats struct {
	lat, hitLat, lag               []float64
	done, hits, misses, refused429 int
}

func (ph *phase) stats() phaseStats {
	var s phaseStats
	for _, o := range ph.outs {
		s.lag = append(s.lag, float64(o.lagNs)/1e6)
		if o.refused == http.StatusTooManyRequests {
			s.refused429++
		}
		if !o.done {
			continue
		}
		s.done++
		s.lat = append(s.lat, float64(o.latNs)/1e6)
		if o.hit {
			s.hits++
			s.hitLat = append(s.hitLat, float64(o.latNs)/1e6)
		} else {
			s.misses++
		}
	}
	return s
}

func runSweepd(c runCfg) (*result, error) {
	r := newResult()
	workers := runtime.NumCPU()
	// One processor more than the pool has workers, so the load generator
	// and the HTTP handlers are not left waiting for a simulating worker to
	// be preempted; without it the generator sends up to a time slice late.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers + 1))
	r.info["gomaxprocs"] = workers + 1
	var s *server
	setup, err := medianSetup(func() (func(), error) {
		var err error
		s, err = bootServer(workers)
		return func() { s.close() }, err
	})
	if err != nil {
		return nil, err
	}
	r.m["setup_s"] = setup
	rate, work := sweepRate, sweepWork
	if c.short {
		rate, work = 8, 300
	}
	interval := time.Duration(float64(time.Second) / rate)
	secs := c.seconds
	if c.trace {
		secs /= 2
	}
	n := int(rate * secs)
	if n < 1 {
		n = 1
	}
	sched := append(sweepSchedule(c.seed, n, work), c.extraRequests...)
	r.info["rate_per_s"] = rate
	r.info["requests"] = len(sched)

	cpu0 := cpuMs()
	ph := runPhase(s, sched, interval)
	cpu := cpuMs() - cpu0
	s.close()
	ph.check(r)
	st := ph.stats()
	r.info["miss_ms_p50_by_exp"] = ph.missP50ByExp()
	lagP95 := percentile(st.lag, 95)
	// The generator has fallen behind when its sends slip by more than a
	// quarter of the send interval: the offered rate is then not the
	// configured one.
	r.info["valid"] = lagP95 <= msOf(interval)/4
	if !r.info["valid"].(bool) {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: generator lag p95 %.2f ms exceeds a quarter of the %.1f ms send interval\n",
			lagP95, msOf(interval))
	}
	r.m["ops_per_s"] = ratio(float64(st.done), float64(ph.wallNs)/1e9)
	if !c.trace {
		r.m["cpu_ms_per_op"] = ratio(cpu, float64(st.done))
		r.m["req_ms_p50"] = percentile(st.lat, 50)
		r.m["req_ms_p95"] = percentile(st.lat, 95)
		sweepLayers(r, ph, st, lagP95)
		return r, nil
	}

	// Traced half: the same schedule against a fresh server, under the
	// CPU profile.
	s, err = bootServer(workers)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	prof, err := startProfile()
	if err != nil {
		s.close()
		return nil, err
	}
	tph := runPhase(s, sched, interval)
	s.close()
	sh, err := prof.shares()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	tph.check(r)
	tst := tph.stats()
	sweepLayers(r, tph, tst, percentile(tst.lag, 95))
	profileLayers(r, sh)
	runtimeLayers(r, rt0, rt1, 0)
	r.m["trace.overhead_pct"] = 100 * (ratio(percentile(tst.lat, 50), percentile(st.lat, 50)) - 1)
	return r, nil
}

func sweepLayers(r *result, ph *phase, st phaseStats, lagP95 float64) {
	r.m["sweepsrv.cache_hit_ratio"] = ratio(float64(st.hits), float64(st.done))
	r.m["sweepsrv.hit_ms_p50"] = percentile(st.hitLat, 50)
	r.m["sweepsrv.queue_depth_max"] = float64(ph.qmax)
	r.m["sweepsrv.cells_per_miss"] = ratio(float64(ph.metrics.CellsExecuted), float64(st.misses))
	r.m["sweepsrv.rejected_429"] = float64(st.refused429)
	r.m["client.lag_ms_p95"] = lagP95
}

// measureCapacity runs fresh misses back to back from one client per
// worker for the given time and returns completed misses per second: the
// figure sweepRate is set against.
func measureCapacity(seed int64, seconds float64) (float64, error) {
	workers := runtime.NumCPU()
	s, err := bootServer(workers)
	if err != nil {
		return 0, err
	}
	defer s.close()
	sched := sweepSchedule(seed, 100000, sweepWork)
	var fresh []sweepReq
	for _, rq := range sched {
		if rq.repeatOf < 0 {
			fresh = append(fresh, rq)
		}
	}
	cl := newClient()
	var (
		mu   sync.Mutex
		next int
		done int
		wg   sync.WaitGroup
	)
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				rq := fresh[next]
				next++
				mu.Unlock()
				if o := doRequest(cl, s.base, rq, time.Now()); o.done {
					mu.Lock()
					done++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), nil
}
