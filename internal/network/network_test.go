package network

import (
	"testing"

	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

func newNet() (*Network, *sim.Engine, *stats.Stats) {
	eng := sim.NewEngine(1)
	st := stats.New()
	return New(eng, st), eng, st
}

// callFunc runs a func() payload, so tests can deliver closures through
// the typed-callback form.
func callFunc(arg any) { arg.(func())() }

func TestSendDeliversAfterHop(t *testing.T) {
	n, eng, _ := newNet()
	var at sim.Time
	n.SendCall(stats.CatData, DataBytes, callFunc, func() { at = eng.Now() })
	eng.Run(nil)
	if at != n.HopLat {
		t.Fatalf("delivered at %d, want %d", at, n.HopLat)
	}
}

func TestSendAfterAddsDelay(t *testing.T) {
	n, eng, _ := newNet()
	var at sim.Time
	n.SendAfterCall(10, stats.CatOther, CtrlBytes, callFunc, func() { at = eng.Now() })
	eng.Run(nil)
	if at != n.HopLat+10 {
		t.Fatalf("delivered at %d, want %d", at, n.HopLat+10)
	}
}

func TestTrafficCharged(t *testing.T) {
	n, eng, st := newNet()
	n.SendCall(stats.CatWrSig, SigBytes, callFunc, func() {})
	n.SendCall(stats.CatInv, CtrlBytes, callFunc, func() {})
	n.Account(stats.CatRdSig, SigBytes)
	eng.Run(nil)
	if st.TrafficBytes[stats.CatWrSig] != SigBytes {
		t.Error("WrSig bytes wrong")
	}
	if st.TrafficBytes[stats.CatInv] != CtrlBytes {
		t.Error("Inv bytes wrong")
	}
	if st.TrafficBytes[stats.CatRdSig] != SigBytes {
		t.Error("Account did not charge")
	}
	if st.Messages[stats.CatWrSig] != 1 || st.Messages[stats.CatRdSig] != 1 {
		t.Error("message counts wrong")
	}
}

func TestMessagesOrderedByLatency(t *testing.T) {
	n, eng, _ := newNet()
	var order []int
	n.SendAfterCall(20, stats.CatOther, CtrlBytes, callFunc, func() { order = append(order, 2) })
	n.SendCall(stats.CatOther, CtrlBytes, callFunc, func() { order = append(order, 1) })
	eng.Run(nil)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v", order)
	}
}
