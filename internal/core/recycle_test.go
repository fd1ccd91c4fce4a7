package core

import (
	"reflect"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/fault"
	"bulksc/internal/mem"
	"bulksc/internal/workload"
)

// maxChunksBuiltPerProc bounds how many chunks one processor's pool may
// construct in a run: the chunks in flight (MaxChunks) plus
// committed ones still held by arbiter W-lists or stpvt propagations, with
// margin. Without in-run recycling every commit constructs a chunk.
const maxChunksBuiltPerProc = 16

// TestCommittedChunkRecyclingIsInvisible runs 64-proc radix with 8
// arbiters, recycling committed chunks within the run, with and without
// late network delivery (so
// Abort and Done messages, and with them Hold releases, trail the grants).
// A cold run and two warm runs of the cell on one Runner must agree on
// both hashes, and each processor must commit hundreds of chunks from a
// bounded number of constructed ones.
func TestCommittedChunkRecyclingIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	netDelay := fault.Campaign{
		Name: "net-delay", Desc: "half of all messages arrive up to 200 cycles late",
		NetDelayProb: 0.5, NetDelayMax: 200, Terminating: true,
	}
	for _, tc := range []struct {
		name   string
		work   int // sized for a few hundred commits per processor
		faults *fault.Campaign
	}{
		{"no-faults", 60000, nil},
		{"net-delay", 20000, &netDelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig("radix")
			cfg.Procs = 64
			cfg.Work = tc.work
			cfg.NumArbiters = 8
			cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
			cfg.CheckSC = false
			cfg.Witness = true
			cfg.WarmupFrac = 0
			gen, err := workload.Get(cfg.App)
			if err != nil {
				t.Fatal(err)
			}
			prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
			withPlan := func() Config {
				c := cfg
				if tc.faults != nil {
					c.Faults = fault.NewPlan(*tc.faults, 11)
				}
				return c
			}

			cold, err := RunProgram(withPlan(), prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(cold.WitnessViolations) > 0 {
				t.Fatalf("witness: %s", cold.WitnessViolations[0])
			}
			if tc.faults != nil && cold.FaultCounters.NetDelays == 0 {
				t.Fatal("no network delay injected")
			}
			if cold.Stats.GArbTransactions == 0 {
				t.Error("G-arbiter never used (multi-range commits expected)")
			}
			r := NewRunner()
			for run := 1; run <= 2; run++ {
				warm, err := r.RunProgram(withPlan(), prog)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := warm.DeterminismHash(), cold.DeterminismHash(); got != want {
					t.Fatalf("warm run %d: DeterminismHash %#x, cold %#x", run, got, want)
				}
				if got, want := warm.WitnessHash(), cold.WitnessHash(); got != want {
					t.Fatalf("warm run %d: WitnessHash %#x, cold %#x", run, got, want)
				}
			}

			perProc := cold.Stats.Chunks / uint64(cfg.Procs)
			if perProc < 150 {
				t.Fatalf("%d commits per processor; the bound below needs hundreds", perProc)
			}
			var most uint64
			for _, p := range r.m.bulkProcs {
				if n := p.ChunksConstructed(); n > most {
					most = n
				}
			}
			t.Logf("%d commits per processor, at most %d chunks constructed by one processor over two runs", perProc, most)
			if most > maxChunksBuiltPerProc {
				t.Fatalf("a processor constructed %d chunks over two runs, want ≤ %d", most, maxChunksBuiltPerProc)
			}
		})
	}
}

// TestCommitRecordsOutliveChunkReuse: a CheckSC run's commit records copy
// each chunk's log at the commit instant, so once the chunk is recycled
// nothing it does reaches the Result. The run reuses its chunks, and after
// it every committed chunk's log storage is overwritten; the records and
// DeterminismHash must still equal a cold run's.
func TestCommitRecordsOutliveChunkReuse(t *testing.T) {
	cfg := DefaultConfig("radix")
	cfg.Work = 8000
	cfg.Witness = false
	gen, err := workload.Get(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
	cold, err := RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]CommitRecord, len(cold.Commits))
	for i, rec := range cold.Commits {
		want[i] = rec
		want[i].Log = append([]chunk.AccessRec(nil), rec.Log...)
	}

	// runProgram, with one more observer that collects the chunks the
	// processors commit.
	m := newMachine()
	m.Reset(cfg)
	for id, ins := range prog.Threads {
		m.addProc(cfg, id, ins)
	}
	m.wirePorts()
	col := &chunkCollector{}
	m.env.Observers = append(m.env.Observers, col)
	res, err := m.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[*chunk.Chunk]bool)
	for _, ch := range col.chunks {
		distinct[ch] = true
	}
	if len(distinct) >= len(col.chunks) {
		t.Fatalf("%d commits used %d distinct chunks: nothing was recycled", len(col.chunks), len(distinct))
	}
	for ch := range distinct {
		log := ch.Log[:cap(ch.Log)]
		for i := range log {
			log[i] = chunk.AccessRec{IsStore: true, Addr: mem.Addr(0xdead0), Value: ^uint64(0)}
		}
	}
	if got, want := res.DeterminismHash(), cold.DeterminismHash(); got != want {
		t.Fatalf("DeterminismHash %#x after overwriting the chunks' logs, cold run %#x", got, want)
	}
	if !reflect.DeepEqual(res.Commits, want) {
		t.Fatal("commit records changed when the recycled chunks' logs were overwritten")
	}
}

// chunkCollector is a test observer that keeps every committed chunk.
type chunkCollector struct{ chunks []*chunk.Chunk }

func (c *chunkCollector) CommitChunk(ch *chunk.Chunk)                    { c.chunks = append(c.chunks, ch) }
func (*chunkCollector) Access(int, uint64, bool, mem.Addr, uint64, bool) {}
func (*chunkCollector) Squash(int, int, int, bool)                       {}
func (*chunkCollector) PreArb(int)                                       {}
