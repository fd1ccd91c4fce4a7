package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"

	"bulksc"
)

// TestTraceRunAppliesFaults: a fault campaign reaches the exported run —
// the history differs from the fault-free one and the Result counts the
// injected faults — while a fault-free export keeps its pinned bytes.
func TestTraceRunAppliesFaults(t *testing.T) {
	export := func(model, campaign string) ([]byte, *bulksc.Result) {
		var buf bytes.Buffer
		res, err := TraceRun(Params{Work: 2000, FaultCampaign: campaign}, "radix", model, 0, &buf)
		if err != nil {
			t.Fatalf("%s/%s: %v", model, campaign, err)
		}
		return buf.Bytes(), res
	}
	// FNV-1a of the fault-free `sweep -exp trace -apps radix -work 2000
	// -trace-model <m>` export, pinned from before campaigns reached it.
	for model, want := range map[string]uint64{"bulk": 0x51ab86e02a3881d5, "sc": 0x634868e7eee5fa88} {
		clean, res := export(model, "none")
		h := fnv.New64a()
		h.Write(clean)
		if got := h.Sum64(); got != want {
			t.Errorf("%s: fault-free export hashes to %#x, want %#x", model, got, want)
		}
		if res.FaultCounters != (bulksc.FaultCounters{}) {
			t.Errorf("%s: fault-free run counted faults: %+v", model, res.FaultCounters)
		}
	}
	clean, _ := export("bulk", "none")
	stormy, res := export("bulk", "squash-storm")
	if bytes.Equal(clean, stormy) {
		t.Error("squash-storm export is byte-identical to the fault-free one")
	}
	if res.FaultCounters.SpuriousSquash == 0 {
		t.Errorf("squash-storm run injected no squashes: %+v", res.FaultCounters)
	}
}
