package core

import (
	"slices"
	"testing"

	"bulksc/internal/arbiter"
	"bulksc/internal/chunk"
	"bulksc/internal/fault"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
	"bulksc/internal/workload"
)

// TestCommitRangesMemo: the range list memoized on a chunk is recomputed
// when dypvt's add-back (PromoteToW) moves a line of a new range into
// WSet, and when the chunk object is reused — even if the reused
// incarnation's sets have exactly the sizes the memo was taken at.
func TestCommitRangesMemo(t *testing.T) {
	m := newMachine()
	cfg := DefaultConfig("radix")
	cfg.NumArbiters = 4
	m.Reset(cfg)
	addr := func(rng, k int) mem.Addr {
		return mem.Addr((uint64(rng)*arbiter.RangeGranule + uint64(k)) * mem.LineBytes)
	}
	var pool chunk.Pool
	f := sig.NewFactory(sig.KindBloom)
	ch := pool.Get(f, nil, 0, 1, 0, 0, 1000)
	ch.RecordLoad(addr(0, 0), 0, false)
	ch.RecordStore(addr(1, 0), 1, false)
	ch.RecordStore(addr(3, 0), 2, true) // dynamically private: PrivSet only
	if got, want := m.commitRanges(ch), []int{0, 1}; !slices.Equal(got, want) {
		t.Fatalf("ranges %v, want %v", got, want)
	}
	if !ch.PromoteToW(addr(3, 0).LineOf()) {
		t.Fatal("private line not promoted")
	}
	if got, want := m.commitRanges(ch), []int{0, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("after PromoteToW: ranges %v, want %v", got, want)
	}
	pool.Put(ch)
	if pool.Get(f, nil, 0, 2, 0, 0, 1000) != ch {
		t.Fatal("pool did not hand back the chunk")
	}
	// Same set sizes as the memo's key (one R line, two W lines), all in
	// range 2.
	ch.RecordLoad(addr(2, 0), 0, false)
	ch.RecordStore(addr(2, 1), 1, false)
	ch.RecordStore(addr(2, 2), 1, false)
	if got, want := m.commitRanges(ch), []int{2}; !slices.Equal(got, want) {
		t.Fatalf("after reuse: ranges %v, want %v", got, want)
	}
}

// countCheck compares Env.Unfinished with a scan of the processors once a
// cycle.
type countCheck struct {
	t      *testing.T
	m      *machine
	checks int
}

func countCheckCB(arg any) {
	c := arg.(*countCheck)
	c.verify("cycle")
	c.m.eng.AfterCall(1, countCheckCB, c)
}

func (c *countCheck) verify(when string) {
	c.t.Helper()
	c.checks++
	unfinished := 0
	for _, p := range c.m.bulkProcs {
		if !p.Finished() {
			unfinished++
		}
	}
	for _, p := range c.m.convProcs {
		if !p.Finished() {
			unfinished++
		}
	}
	if c.m.env.Unfinished != unfinished {
		c.t.Fatalf("%s %d: Unfinished = %d, %d processors not finished", when, c.m.eng.Now(), c.m.env.Unfinished, unfinished)
	}
}

// TestUnfinishedCountTracksProcessors: the machine's count of unfinished
// processors — the engine's O(1) stop test — equals a scan of the
// processors throughout a run and reaches zero exactly when every one has
// finished, for BulkSC and conventional models, on one warm machine that
// changes model and size between runs and survives a run cut short by the
// watchdog.
func TestUnfinishedCountTracksProcessors(t *testing.T) {
	m := newMachine()
	runs := []struct {
		name string
		mut  func(c *Config)
		fail bool
	}{
		{"bulk-8", func(c *Config) {}, false},
		{"sc-4", func(c *Config) { c.Model = ModelSC; c.Procs = 4 }, false},
		{"rc-8", func(c *Config) { c.Model = ModelRC; c.Witness = false }, false},
		{"bulk-livelock", func(c *Config) { c.Faults = fault.NewPlan(fault.MustGet("livelock"), 1) }, true},
		{"bulk-16-4arb", func(c *Config) { c.Procs = 16; c.NumArbiters = 4 }, false},
		{"sc++-8", func(c *Config) { c.Model = ModelSCpp; c.Witness = false }, false},
	}
	for _, r := range runs {
		cfg := DefaultConfig("fft")
		cfg.Work = 2000
		cfg.WarmupFrac = 0
		cfg.CheckSC = false
		r.mut(&cfg)
		gen, err := workload.Get(cfg.App)
		if err != nil {
			t.Fatal(err)
		}
		prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
		m.Reset(cfg)
		for i, ins := range prog.Threads {
			m.addProc(cfg, i, ins)
		}
		m.wirePorts()
		chk := &countCheck{t: t, m: m}
		m.eng.AfterCall(1, countCheckCB, chk)
		_, err = m.run(cfg)
		if r.fail {
			if err == nil {
				t.Fatalf("%s: run did not fail", r.name)
			}
			if m.env.Unfinished == 0 {
				t.Fatalf("%s: Unfinished reached zero in a starved run", r.name)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		chk.verify(r.name + " end")
		if chk.checks < 100 {
			t.Fatalf("%s: only %d checks ran", r.name, chk.checks)
		}
	}
}
