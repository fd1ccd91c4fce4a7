package sim

// schedAt and schedAfter schedule a plain func() through the engine's one
// callback form, with the func as the payload of callFunc; tests read
// better with closures than with payload records.
func schedAt(e *Engine, t Time, f func()) { e.AtCall(t, callFunc, f) }

func schedAfter(e *Engine, d Time, f func()) { e.AfterCall(d, callFunc, f) }

func callFunc(arg any) { arg.(func())() }
