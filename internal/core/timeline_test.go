package core

import (
	"strings"
	"testing"
)

// TestTimelineRecording checks the timeline against the run's own
// counters. Warmup exclusion is off, so the stats cover every event.
func TestTimelineRecording(t *testing.T) {
	cfg := DefaultConfig("radiosity")
	cfg.Work = 15000
	cfg.WarmupFrac = 0
	cfg.RecordTimeline = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var commits, squashes, genuine, victims uint64
	var prev uint64
	for _, ev := range res.Timeline {
		if ev.At < prev {
			t.Fatal("timeline not time-ordered")
		}
		prev = ev.At
		switch ev.Kind {
		case EvCommit:
			commits++
			if ev.Order == 0 {
				t.Fatal("commit event without order")
			}
		case EvSquash:
			squashes++
			victims += uint64(ev.Victims)
			if ev.Genuine {
				genuine++
			}
		}
	}
	st := res.Stats
	if commits != st.Chunks {
		t.Errorf("%d commit events, stats count %d chunks", commits, st.Chunks)
	}
	if squashes != st.SquashesTrue+st.SquashesAliased {
		t.Errorf("%d squash events, stats count %d true + %d aliased", squashes, st.SquashesTrue, st.SquashesAliased)
	}
	if victims != st.Squashes {
		t.Errorf("squash events name %d victims, stats count %d squashed chunks", victims, st.Squashes)
	}
	if genuine != st.SquashesTrue {
		t.Errorf("%d genuine squash events, stats count %d true squashes", genuine, st.SquashesTrue)
	}
	if commits == 0 || squashes == 0 {
		t.Fatalf("radiosity recorded %d commits and %d squashes; the checks above need both", commits, squashes)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig("water-sp")
	cfg.Work = 10000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 {
		t.Fatal("timeline recorded without RecordTimeline")
	}
}

func TestTimelineLanesRendering(t *testing.T) {
	tl := Timeline{
		{At: 10, Proc: 0, Kind: EvCommit, Order: 1, Instrs: 100},
		{At: 20, Proc: 1, Kind: EvSquash, Victims: 2, Instrs: 50, Genuine: true},
		{At: 30, Proc: 1, Kind: EvSquash, Victims: 1, Instrs: 20},
		{At: 40, Proc: 0, Kind: EvPreArb},
	}
	out := tl.Lanes(2, 50)
	if !strings.Contains(out, "p0 ") || !strings.Contains(out, "p1 ") {
		t.Fatalf("lanes missing processors:\n%s", out)
	}
	if !strings.Contains(out, "C") || !strings.Contains(out, "S") ||
		!strings.Contains(out, "s") || !strings.Contains(out, "P") {
		t.Fatalf("lanes missing event glyphs:\n%s", out)
	}
	sum := tl.Summary(2)
	if !strings.Contains(sum, "p0") || !strings.Contains(sum, "1") {
		t.Fatalf("summary malformed:\n%s", sum)
	}
	if Timeline(nil).Lanes(2, 50) == "" {
		t.Fatal("empty timeline must render a placeholder")
	}
}

func TestTimelineEventKindStrings(t *testing.T) {
	if EvCommit.String() != "commit" || EvSquash.String() != "squash" || EvPreArb.String() != "prearb" {
		t.Fatal("event kind strings wrong")
	}
}
