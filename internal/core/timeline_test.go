package core

import (
	"bytes"
	"testing"

	"bulksc/internal/history"
)

// export runs cfg with its history exported, in event mode when events is
// set, and returns the Result and the parsed export.
func export(t *testing.T, cfg Config, events bool) (*Result, *history.History) {
	t.Helper()
	var buf bytes.Buffer
	cfg.TraceWriter, cfg.TraceEvents = &buf, events
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := history.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, h
}

// TestTimelineRecording checks an event-mode export against the run's own
// counters. Warmup exclusion is off, so the stats cover every event.
func TestTimelineRecording(t *testing.T) {
	cfg := DefaultConfig("radiosity")
	cfg.Work = 15000
	cfg.WarmupFrac = 0
	res, h := export(t, cfg, true)
	var prev uint64
	for _, c := range h.Chunks {
		if c.At == 0 || c.At < prev {
			t.Fatalf("chunk order %d stamped with cycle %d, after a commit at %d", c.Order, c.At, prev)
		}
		prev = c.At
	}
	var squashes, genuine, victims uint64
	prev = 0
	for _, e := range h.Events {
		if e.At < prev {
			t.Fatalf("%s event at cycle %d follows one at %d", e.Kind, e.At, prev)
		}
		prev = e.At
		if e.Kind == history.KindSquash {
			squashes++
			victims += uint64(e.Victims)
			if e.Genuine {
				genuine++
			}
		}
	}
	st := res.Stats
	commits := uint64(len(h.Chunks))
	if commits != st.Chunks {
		t.Errorf("%d chunk records, stats count %d chunks", commits, st.Chunks)
	}
	if squashes != st.SquashesTrue+st.SquashesAliased {
		t.Errorf("%d squash records, stats count %d true + %d aliased", squashes, st.SquashesTrue, st.SquashesAliased)
	}
	if victims != st.Squashes {
		t.Errorf("squash records name %d victims, stats count %d squashed chunks", victims, st.Squashes)
	}
	if genuine != st.SquashesTrue {
		t.Errorf("%d genuine squash records, stats count %d true squashes", genuine, st.SquashesTrue)
	}
	if commits == 0 || squashes == 0 {
		t.Fatalf("radiosity exported %d commits and %d squashes; the checks above need both", commits, squashes)
	}
}

// TestTimelineDisabledByDefault: a default export carries no event records
// and no commit cycles, and event mode is BulkSC only.
func TestTimelineDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig("water-sp")
	cfg.Work = 10000
	_, h := export(t, cfg, false)
	if len(h.Events) != 0 {
		t.Fatalf("default export holds %d event records", len(h.Events))
	}
	for _, c := range h.Chunks {
		if c.At != 0 {
			t.Fatalf("default export stamps chunk order %d with cycle %d", c.Order, c.At)
		}
	}
	cfg.Model = ModelSC
	if _, h := export(t, cfg, true); len(h.Events) != 0 {
		t.Fatalf("SC export in event mode holds %d event records", len(h.Events))
	}
}
