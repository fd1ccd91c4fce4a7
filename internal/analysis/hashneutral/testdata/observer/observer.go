// Package observer reproduces the hash-neutrality bug class: a witness /
// watchdog hook annotated //sim:observer that accidentally writes
// simulation state, perturbing the determinism hash the moment the
// observer is enabled. The clean observers below pin the sanctioned
// patterns: reading sim state, mutating observer-owned fields, and
// justified exceptions.
package observer

// Machine is simulation state. Observers receive pointers to it.
type Machine struct {
	Cycles  uint64
	Commits int
	Log     []uint64
	tags    map[uint64]int
}

func (m *Machine) Bump() { m.Cycles++ }

func (m *Machine) Pending() int { return len(m.Log) }

// Witness validates commits without touching the machine.
//
//sim:observer
type Witness struct {
	// m points INTO sim state: reads are fine, writes are findings.
	//sim:observes
	m *Machine

	seen     []uint64 // observer-owned scratch
	failures int
}

// badHook is the historical bug: the witness "fixes up" machine state
// while checking it.
func (w *Witness) badHook(val uint64) {
	w.m.Commits++ // want `observer writes sim state through "w.m"`
	w.seen = append(w.seen, val)
}

// badDelegate mutates sim state through a method call.
func (w *Witness) badDelegate() {
	w.m.Bump() // want `observer calls Bump, which mutates its operand "w.m"`
}

// badParamStore writes through a non-observer pointer parameter.
func (w *Witness) badParamStore(m *Machine) {
	m.Cycles = 0 // want `observer writes sim state through "m"`
}

// badBuiltin clears a sim-state map.
func (w *Witness) badBuiltin() {
	clear(w.m.tags) // want `observer mutates sim state via clear`
}

// badDerived taints a local through a selector chain, then stores.
func (w *Witness) badDerived() {
	log := w.m.Log
	log[0] = 1 // want `observer writes sim state through "log"`
}

// goodRead reads sim state and records into observer-owned fields only.
func (w *Witness) goodRead(val uint64) bool {
	if w.m.Cycles > 0 && w.m.Pending() > 0 {
		w.seen = append(w.seen, val)
		w.failures++
		return false
	}
	return true
}

// goodLocal builds observer-local state from sim reads; values (not
// pointers) carry no taint.
func (w *Witness) goodLocal() uint64 {
	total := w.m.Cycles
	for _, v := range w.m.Log {
		total += v
	}
	return total
}

// justified carries a reviewed exception.
func (w *Witness) justified() {
	w.m.Commits++ //lint:observer test hook: deliberately perturbs state to prove goldens notice
}

// freeObserver is an annotated free function: every pointer parameter is
// presumed sim state, so writing through one is a finding.
//
//sim:observer
func freeObserver(m *Machine, out *uint64) {
	*out = m.Cycles // want `observer writes sim state through "out"`
}

// Recorder shows observer-owned pointer fields: without //sim:observes
// they are sinks the observer may mutate freely.
//
//sim:observer
type Recorder struct {
	buf []byte // observer-owned
}

func (r *Recorder) Record(m *Machine, b byte) {
	if m.Cycles > 0 {
		r.buf = append(r.buf, b)
	}
}

// Sink is an observer interface: every named type implementing it is an
// observer, annotated or not.
//
//sim:observer
type Sink interface {
	Commit(m *Machine)
}

// Tap implements Sink without an annotation of its own, so its methods
// are checked all the same.
type Tap struct {
	commits int // observer-owned
}

func (t *Tap) Commit(m *Machine) {
	t.commits++
	m.Commits++ // want `observer writes sim state through "m"`
}

// Counter implements Sink through a value receiver and only reads.
type Counter struct{ seen *int }

func (c Counter) Commit(m *Machine) {
	*c.seen += m.Commits
}

// Bystander has Sink's method set on neither its value nor its pointer,
// so it is not an observer and may write sim state.
type Bystander struct{}

func (Bystander) Commit(m *Machine, n int) { m.Commits = n }
