package sweepsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"bulksc/experiments"
)

// Config shapes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the pool size: that many goroutines, each owning one
	// persistent experiments.Worker (a warm Runner plus a cross-job
	// program memo). Default 2.
	Workers int
	// QueueDepth bounds the job queue; a submit that finds it full is
	// rejected with 429 and a Retry-After hint rather than blocking.
	// Default 16.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (LRU).
	// Default 128.
	CacheEntries int
	// MaxWork caps the per-thread instruction budget a single request
	// may ask for; 0 = uncapped. A service exposed to real traffic sets
	// this so one job cannot monopolize a worker for minutes.
	MaxWork int
	// RetryAfterSeconds is the Retry-After hint on 429 responses.
	// Default 1.
	RetryAfterSeconds int
	// RetainJobs bounds how many finished jobs stay addressable via
	// /result and /stream; the oldest finished job past the bound is
	// forgotten (its cache entry survives independently). Default 1024.
	RetainJobs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	return c
}

// Job status values. A job is terminal in exactly one of done, failed,
// canceled or aborted; "aborted" is reserved for jobs that were still
// queued when the server began shutting down — the distinct fate graceful
// shutdown promises them.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
	StatusAborted  = "aborted"
)

// Event is one progress record of a job's stream, in both the SSE data
// field and the NDJSON line form. Event is "status" (lifecycle edge),
// "row" (one completed simulation cell) or "done" (terminal, carrying the
// final status and cache disposition).
type Event struct {
	Event  string `json:"event"`
	Status string `json:"status,omitempty"`
	Cache  string `json:"cache,omitempty"`
	Error  string `json:"error,omitempty"`
	App    string `json:"app,omitempty"`
	Key    string `json:"key,omitempty"`
	Cell   int    `json:"cell,omitempty"`
	Total  int    `json:"total,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	Hash   string `json:"hash,omitempty"`
}

// jobState is one submitted job's full lifecycle: identity, event history
// (replayed to late stream subscribers), terminal result bytes, and the
// cancellation context the experiments layer polls between cells.
type jobState struct {
	id   string
	key  string
	req  Request // canonical form
	cold bool    // execution hint preserved from the raw request

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	status   string
	events   []Event
	subs     []chan struct{} // kick channels: receivers re-read events
	cacheDis string          // "hit" or "miss" once terminal
	result   []byte          // marshaled JobOutput once done
	errMsg   string
	done     chan struct{} // closed at the terminal transition
}

func (js *jobState) publish(ev Event) {
	js.mu.Lock()
	js.events = append(js.events, ev)
	for _, ch := range js.subs {
		select {
		case ch <- struct{}{}:
		default: // receiver already has a pending kick; it re-reads anyway
		}
	}
	js.mu.Unlock()
}

// subscribe registers a kick channel; eventsFrom(i) then drains history.
func (js *jobState) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	js.mu.Lock()
	js.subs = append(js.subs, ch)
	js.mu.Unlock()
	return ch
}

func (js *jobState) unsubscribe(ch chan struct{}) {
	js.mu.Lock()
	for i, c := range js.subs {
		if c == ch {
			js.subs = append(js.subs[:i], js.subs[i+1:]...)
			break
		}
	}
	js.mu.Unlock()
}

// eventsFrom returns a copy of the events at index ≥ i and whether the job
// has reached a terminal state.
func (js *jobState) eventsFrom(i int) ([]Event, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	var evs []Event
	if i < len(js.events) {
		evs = append(evs, js.events[i:]...)
	}
	terminal := js.status == StatusDone || js.status == StatusFailed ||
		js.status == StatusCanceled || js.status == StatusAborted
	return evs, terminal
}

func (js *jobState) snapshot() (status, cacheDis, errMsg string, result []byte) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.status, js.cacheDis, js.errMsg, js.result
}

// Server is the sweep service: a bounded queue feeding a pool of warm
// workers, fronted by the HTTP API and the content-addressed result cache.
// Construct with NewServer, serve via Handler, stop via Shutdown.
type Server struct {
	cfg   Config
	cache *resultCache

	mu        sync.Mutex
	accepting bool
	draining  bool
	queue     chan *jobState
	jobs      map[string]*jobState
	finished  []string // finished job ids, oldest first (retention FIFO)
	seq       int

	wg sync.WaitGroup

	// Monotonic counters (guarded by mu; read via Metrics).
	submitted, rejectedInvalid, rejectedBusy, servedFromCache uint64
	completed, failed, canceled, aborted                      uint64
	cells                                                     uint64
}

// NewServer starts cfg.Workers pool goroutines and returns the service.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheEntries),
		accepting: true,
		queue:     make(chan *jobState, cfg.QueueDepth),
		jobs:      make(map[string]*jobState),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker owns one persistent experiments.Worker for its whole life: the
// warm machine arena and the memoized programs survive across jobs, which
// is the entire point of the pool (PR 5's bit-identical warm reset makes
// the reuse safe; the suite's cold-golden comparisons prove it under load).
func (s *Server) worker() {
	defer s.wg.Done()
	w := experiments.NewWorker()
	for js := range s.queue {
		if !s.startJob(js) {
			continue
		}
		s.execute(js, w)
	}
}

// startJob transitions a dequeued job to running, unless it was canceled
// while queued or the server is draining — queued jobs are failed with the
// distinct "aborted" status during shutdown, never silently dropped.
func (s *Server) startJob(js *jobState) bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.finish(js, StatusAborted, "", nil, "server shutting down before job started")
		return false
	}
	js.mu.Lock()
	if js.status != StatusQueued { // canceled while queued
		js.mu.Unlock()
		return false
	}
	js.status = StatusRunning
	js.events = append(js.events, Event{Event: "status", Status: StatusRunning})
	for _, ch := range js.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	js.mu.Unlock()
	return true
}

// execute runs one job on the pool worker, streaming a "row" event per
// completed cell and finishing with the marshaled output (which also
// becomes the job's cache entry).
func (s *Server) execute(js *jobState, w *experiments.Worker) {
	req := js.req
	req.Cold = js.cold
	p := experiments.Params{Worker: w, Ctx: js.ctx}
	out, err := runExperiment(req, p, func(c experiments.Cell) {
		s.mu.Lock()
		s.cells++
		s.mu.Unlock()
		js.publish(Event{
			Event: "row", App: c.App, Key: c.Key,
			Cell: c.Index, Total: c.Total,
			Cycles: c.Result.Cycles,
			Hash:   fmt.Sprintf("%016x", c.Result.DeterminismHash()),
		})
	})
	if err != nil {
		status := StatusFailed
		if js.ctx.Err() != nil {
			status = StatusCanceled
		}
		s.finish(js, status, "", nil, err.Error())
		return
	}
	buf, merr := json.Marshal(out)
	if merr != nil {
		s.finish(js, StatusFailed, "", nil, merr.Error())
		return
	}
	s.cache.Put(js.key, buf)
	s.finish(js, StatusDone, "miss", buf, "")
}

// finish moves js to a terminal state exactly once; later callers (e.g. a
// cancel racing the worker) are no-ops. The job is counted in the metrics
// first, under js.mu, and only then gets its status, its "done" event and
// its closed done channel, so a client that sees the job end finds it in
// /metrics. Lock order: js.mu, then s.mu.
func (s *Server) finish(js *jobState, status, cacheDis string, result []byte, errMsg string) {
	js.mu.Lock()
	if js.status == StatusDone || js.status == StatusFailed ||
		js.status == StatusCanceled || js.status == StatusAborted {
		js.mu.Unlock()
		return
	}
	s.finishAccounting(js, status)
	js.status = status
	js.cacheDis = cacheDis
	js.result = result
	js.errMsg = errMsg
	js.events = append(js.events, Event{Event: "done", Status: status, Cache: cacheDis, Error: errMsg})
	for _, ch := range js.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	close(js.done)
	js.mu.Unlock()
	js.cancel()
}

// finishAccounting updates the terminal counters and the finished-job
// retention window (the oldest finished job past RetainJobs is forgotten).
func (s *Server) finishAccounting(js *jobState, status string) {
	s.mu.Lock()
	switch status {
	case StatusDone:
		s.completed++
	case StatusFailed:
		s.failed++
	case StatusCanceled:
		s.canceled++
	case StatusAborted:
		s.aborted++
	}
	s.finished = append(s.finished, js.id)
	if len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// Shutdown gracefully stops the service: new submissions are refused with
// 503, running jobs drain to completion, and every job still queued is
// failed with the distinct "aborted" status (its streams receive a
// terminal event and close). If ctx expires before the drain completes,
// running jobs are canceled via their contexts — the experiments layer
// stops at the next cell boundary — and Shutdown still waits for the pool
// to wind down before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil
	}
	s.accepting = false
	s.draining = true
	close(s.queue) // submits hold mu, so no send can race the close
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: escalate from draining to canceling.
	s.mu.Lock()
	//lint:deterministic shutdown escalation cancels every job; order is irrelevant and nothing reaches simulation state
	for _, js := range s.jobs {
		js.cancel()
	}
	s.mu.Unlock()
	<-drained
	return ctx.Err()
}

// register allocates an id and records the job; callers hold s.mu.
func (s *Server) registerLocked(js *jobState) {
	s.seq++
	js.id = fmt.Sprintf("j-%06d", s.seq)
	s.jobs[js.id] = js
}

func newJobState(key string, req Request, cold bool) *jobState {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobState{
		key: key, req: req, cold: cold,
		ctx: ctx, cancel: cancel,
		status: StatusQueued,
		events: []Event{{Event: "status", Status: StatusQueued}},
		done:   make(chan struct{}),
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /sweep        submit a job (Request JSON body)
//	GET    /result/{id}  job status / terminal result envelope
//	GET    /stream/{id}  SSE progress stream (?format=ndjson for NDJSON)
//	DELETE /job/{id}     cancel a queued or running job
//	GET    /healthz      liveness + drain state
//	GET    /metrics      JSON counters (queue, pool, cache, jobs)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweep", s.handleSubmit)
	mux.HandleFunc("GET /result/{id}", s.handleResult)
	mux.HandleFunc("GET /stream/{id}", s.handleStream)
	mux.HandleFunc("DELETE /job/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
}

// SubmitResponse is the POST /sweep response body.
type SubmitResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cache  string `json:"cache"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var raw Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		s.countInvalid()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	canon, err := raw.Canonicalize()
	if err != nil {
		s.countInvalid()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if s.cfg.MaxWork > 0 && canon.Work > s.cfg.MaxWork {
		s.countInvalid()
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("work %d exceeds this server's cap %d", canon.Work, s.cfg.MaxWork)})
		return
	}
	key, err := canon.Key()
	if err != nil {
		s.countInvalid()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	s.mu.Lock()
	s.submitted++
	if !s.accepting {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is shutting down"})
		return
	}
	// Content-addressed fast path: an identical canonical config that
	// already completed is served from the cache — the job is born
	// terminal, no queue slot, no Runner invocation.
	if data, ok := s.cache.Get(key); ok {
		js := newJobState(key, canon, false)
		s.registerLocked(js)
		s.servedFromCache++
		id := js.id
		s.mu.Unlock()
		s.finish(js, StatusDone, "hit", data, "")
		writeJSON(w, http.StatusOK, SubmitResponse{ID: id, Key: key, Status: StatusDone, Cache: "hit"})
		return
	}
	js := newJobState(key, canon, raw.Cold)
	select {
	case s.queue <- js:
		s.registerLocked(js)
		id := js.id
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, Key: key, Status: StatusQueued, Cache: "miss"})
	default:
		s.rejectedBusy++
		s.mu.Unlock()
		js.cancel()
		// Backpressure contract: a full queue NEVER blocks the client;
		// it answers 429 with an explicit retry hint.
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error: fmt.Sprintf("job queue full (%d deep); retry after %ds",
				s.cfg.QueueDepth, s.cfg.RetryAfterSeconds)})
	}
}

func (s *Server) countInvalid() {
	s.mu.Lock()
	s.submitted++
	s.rejectedInvalid++
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// ResultEnvelope is the GET /result/{id} response for a terminal job. The
// Result field carries the exact bytes produced when the job first ran;
// cache hits replay them byte-identically.
type ResultEnvelope struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	status, cacheDis, errMsg, result := js.snapshot()
	env := ResultEnvelope{ID: js.id, Status: status, Cache: cacheDis, Error: errMsg, Result: result}
	switch status {
	case StatusQueued, StatusRunning:
		writeJSON(w, http.StatusAccepted, env)
	default:
		writeJSON(w, http.StatusOK, env)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	js.mu.Lock()
	status := js.status
	js.mu.Unlock()
	switch status {
	case StatusQueued:
		// Terminal now; the worker that eventually dequeues it skips it.
		s.finish(js, StatusCanceled, "", nil, "canceled while queued")
	case StatusRunning:
		// The experiments layer observes the context between cells; the
		// worker will finish the job as canceled.
		js.cancel()
	}
	status, _, _, _ = js.snapshot()
	writeJSON(w, http.StatusAccepted, ResultEnvelope{ID: js.id, Status: status})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status})
}

// Metrics is the GET /metrics JSON schema.
type Metrics struct {
	Submitted       uint64 `json:"submitted"`
	RejectedInvalid uint64 `json:"rejected_invalid"`
	RejectedBusy    uint64 `json:"rejected_queue_full"`
	ServedFromCache uint64 `json:"served_from_cache"`
	Completed       uint64 `json:"completed"`
	Failed          uint64 `json:"failed"`
	Canceled        uint64 `json:"canceled"`
	Aborted         uint64 `json:"aborted"`
	// CellsExecuted counts the simulations actually run on pool workers;
	// it is THE Runner-invocation counter the cache tests pin: a cache
	// hit adds zero.
	CellsExecuted uint64     `json:"cells_executed"`
	QueueDepth    int        `json:"queue_depth"`
	QueueCap      int        `json:"queue_cap"`
	Workers       int        `json:"workers"`
	Draining      bool       `json:"draining"`
	Cache         cacheStats `json:"cache"`
}

// MetricsSnapshot returns the current counters (also served on /metrics).
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		Submitted:       s.submitted,
		RejectedInvalid: s.rejectedInvalid,
		RejectedBusy:    s.rejectedBusy,
		ServedFromCache: s.servedFromCache,
		Completed:       s.completed,
		Failed:          s.failed,
		Canceled:        s.canceled,
		Aborted:         s.aborted,
		CellsExecuted:   s.cells,
		QueueDepth:      len(s.queue),
		QueueCap:        s.cfg.QueueDepth,
		Workers:         s.cfg.Workers,
		Draining:        s.draining,
	}
	s.mu.Unlock()
	m.Cache = s.cache.Stats()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	flusher, canFlush := w.(http.Flusher)
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	kick := js.subscribe()
	defer js.unsubscribe(kick)
	enc := json.NewEncoder(w)
	i := 0
	for {
		evs, terminal := js.eventsFrom(i)
		if len(evs) == 0 && terminal {
			return // history fully delivered, job terminal: close cleanly
		}
		for _, ev := range evs {
			if !ndjson {
				fmt.Fprintf(w, "event: %s\ndata: ", ev.Event)
			}
			enc.Encode(ev) //nolint:errcheck // disconnect caught via r.Context
			if !ndjson {
				fmt.Fprint(w, "\n")
			}
		}
		i += len(evs)
		if canFlush {
			flusher.Flush()
		}
		if len(evs) == 0 {
			select {
			case <-kick:
			case <-js.done:
			case <-r.Context().Done():
				return
			}
		}
	}
}
