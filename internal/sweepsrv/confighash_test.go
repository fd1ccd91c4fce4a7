package sweepsrv

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"bulksc"
	"bulksc/experiments"
)

// keyOfJSON decodes a raw JSON request body exactly the way handleSubmit
// does and returns its content-address. Taking the raw-bytes route (rather
// than building Request literals) is the point: it proves field order,
// whitespace and spelled-out defaults are erased before hashing.
func keyOfJSON(t *testing.T, body string) string {
	t.Helper()
	var r Request
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	key, err := r.Key()
	if err != nil {
		t.Fatalf("Key(%q): %v", body, err)
	}
	return key
}

// TestKeyEquivalences: each group of raw JSON bodies must hash to ONE key.
func TestKeyEquivalences(t *testing.T) {
	groups := map[string][]string{
		"field order and whitespace": {
			`{"exp":"fig9","apps":["radix"],"work":4000}`,
			`{"work":4000,"exp":"fig9","apps":["radix"]}`,
			`{ "apps" : [ "radix" ] ,
			   "exp" : "fig9" , "work" : 4000 }`,
		},
		"explicit defaults vs omitted": {
			`{"exp":"fig9","apps":["radix"]}`,
			`{"exp":"fig9","apps":["radix"],"work":120000,"seed":1,"faults":"none","fault_seed":1}`,
		},
		"exp case and surrounding space": {
			`{"exp":"fig9","apps":["lu"]}`,
			`{"exp":"FIG9","apps":["lu"]}`,
			`{"exp":"  Fig9 ","apps":["lu"]}`,
		},
		"fields the experiment ignores are cleared": {
			`{"exp":"fig9","apps":["radix"]}`,
			`{"exp":"fig9","apps":["radix"],"procs":[8,16]}`,
			`{"exp":"fig9","apps":["radix"],"arbiters":[2,4]}`,
		},
		"fault seed pinned without a campaign": {
			`{"exp":"fig9","apps":["radix"]}`,
			`{"exp":"fig9","apps":["radix"],"faults":"none","fault_seed":99}`,
		},
		"arbiters consumes only the first procs value": {
			`{"exp":"arbiters","apps":["radix"]}`,
			`{"exp":"arbiters","apps":["radix"],"procs":[16]}`,
			`{"exp":"arbiters","apps":["radix"],"procs":[16,32,64]}`,
		},
		"scaling default proc list": {
			`{"exp":"scaling","apps":["radix"]}`,
			`{"exp":"scaling","apps":["radix"],"procs":[8,16,64]}`,
		},
	}
	for name, bodies := range groups {
		t.Run(name, func(t *testing.T) {
			want := keyOfJSON(t, bodies[0])
			for _, b := range bodies[1:] {
				if got := keyOfJSON(t, b); got != want {
					t.Errorf("key mismatch within equivalence group:\n  %s\n  %s\nhash %s vs %s",
						bodies[0], b, want, got)
				}
			}
		})
	}
}

// TestKeyDistinctions: semantically different configs must hash apart.
func TestKeyDistinctions(t *testing.T) {
	base := `{"exp":"fig9","apps":["radix"],"work":4000}`
	distinct := map[string]string{
		"different exp":       `{"exp":"fig10","apps":["radix"],"work":4000}`,
		"different app":       `{"exp":"fig9","apps":["lu"],"work":4000}`,
		"app order semantic":  `{"exp":"fig9","apps":["lu","radix"],"work":4000}`,
		"different work":      `{"exp":"fig9","apps":["radix"],"work":4001}`,
		"different seed":      `{"exp":"fig9","apps":["radix"],"work":4000,"seed":2}`,
		"witness on":          `{"exp":"fig9","apps":["radix"],"work":4000,"witness":true}`,
		"fault campaign":      `{"exp":"fig9","apps":["radix"],"work":4000,"faults":"delay-jitter"}`,
		"apps default vs one": `{"exp":"fig9","work":4000}`,
	}
	baseKey := keyOfJSON(t, base)
	seen := map[string]string{base: baseKey}
	for name, body := range distinct {
		got := keyOfJSON(t, body)
		if got == baseKey {
			t.Errorf("%s: %s collides with base %s", name, body, base)
		}
		for prev, prevKey := range seen {
			if got == prevKey && body != prev {
				t.Errorf("collision between %s and %s", body, prev)
			}
		}
		seen[body] = got
	}
	if k1, k2 := keyOfJSON(t, `{"exp":"fig9","apps":["lu","radix"]}`), keyOfJSON(t, `{"exp":"fig9","apps":["radix","lu"]}`); k1 == k2 {
		t.Error("app ORDER is semantic (it is the result row order) but did not flip the key")
	}
}

// fieldCase drives the reflection sweep below: for each Request field, a
// base request in which the field is actually consumed, a mutation of that
// field, and whether the mutation must flip the key.
type fieldCase struct {
	base     Request
	mutate   func(*Request)
	flipsKey bool
}

// TestKeyCoversEveryRequestField walks the Request struct by reflection;
// every field MUST have a table entry, so adding a config field without
// deciding its cache-key semantics fails this test — new fields cannot
// silently escape the canonical hash.
func TestKeyCoversEveryRequestField(t *testing.T) {
	fig9 := Request{Exp: "fig9", Apps: []string{"radix"}, Work: 4000}
	table := map[string]fieldCase{
		"Exp":      {fig9, func(r *Request) { r.Exp = "table3" }, true},
		"Apps":     {fig9, func(r *Request) { r.Apps = []string{"ocean"} }, true},
		"Work":     {fig9, func(r *Request) { r.Work = 8000 }, true},
		"Seed":     {fig9, func(r *Request) { r.Seed = 17 }, true},
		"Witness":  {fig9, func(r *Request) { r.Witness = true }, true},
		"Faults":   {fig9, func(r *Request) { r.Faults = "squash-storm" }, true},
		"Procs":    {Request{Exp: "scaling", Apps: []string{"radix"}, Work: 4000}, func(r *Request) { r.Procs = []int{8, 32} }, true},
		"Arbiters": {Request{Exp: "arbiters", Apps: []string{"radix"}, Work: 4000}, func(r *Request) { r.Arbiters = []int{2, 16} }, true},
		// FaultSeed only matters under an active campaign (it is pinned
		// otherwise — see TestKeyEquivalences).
		"FaultSeed": {
			Request{Exp: "fig9", Apps: []string{"radix"}, Work: 4000, Faults: "livelock"},
			func(r *Request) { r.FaultSeed = 23 }, true},
	}

	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		tc, ok := table[name]
		if !ok {
			t.Fatalf("Request field %q has no cache-key coverage entry: decide whether it is "+
				"semantic (flips the key) or an execution hint (must not), and add it to this table", name)
		}
		t.Run(name, func(t *testing.T) {
			before, err := tc.base.Key()
			if err != nil {
				t.Fatalf("base Key: %v", err)
			}
			mutated := tc.base
			tc.mutate(&mutated)
			after, err := mutated.Key()
			if err != nil {
				t.Fatalf("mutated Key: %v", err)
			}
			if tc.flipsKey && before == after {
				t.Errorf("mutating %s did not change the key: two different configs would share a cache entry", name)
			}
			if !tc.flipsKey && before != after {
				t.Errorf("mutating %s changed the key: an execution hint leaked into job identity", name)
			}
		})
	}
}

// TestCanonicalizeIdempotent: canonicalizing a canonical form is a no-op,
// and Key() of both forms agrees.
func TestCanonicalizeIdempotent(t *testing.T) {
	reqs := []Request{
		{Exp: "fig9"},
		{Exp: "SCALING", Procs: []int{16, 8}},
		{Exp: "arbiters", Procs: []int{32, 64}, Arbiters: []int{1, 4}},
		{Exp: "faults", Apps: []string{"radix"}, Faults: "livelock", FaultSeed: 9},
		{Exp: "sigspace"},
	}
	for _, r := range reqs {
		c1, err := r.Canonicalize()
		if err != nil {
			t.Fatalf("Canonicalize(%+v): %v", r, err)
		}
		c2, err := c1.Canonicalize()
		if err != nil {
			t.Fatalf("re-Canonicalize(%+v): %v", c1, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("canonicalize not idempotent:\n once: %+v\ntwice: %+v", c1, c2)
		}
		k1, _ := r.Key()
		k2, _ := c1.Key()
		if k1 != k2 {
			t.Errorf("Key differs between raw and canonical form of %+v", r)
		}
	}
}

// TestCanonicalizeErrors: every invalid shape is refused with an error.
func TestCanonicalizeErrors(t *testing.T) {
	bad := map[string]Request{
		"unknown exp":      {Exp: "fig12"},
		"empty exp":        {},
		"unknown app":      {Exp: "fig9", Apps: []string{"doom"}},
		"negative work":    {Exp: "fig9", Work: -1},
		"procs zero":       {Exp: "scaling", Procs: []int{0}},
		"procs huge":       {Exp: "scaling", Procs: []int{1 << 20}},
		"arbiters zero":    {Exp: "arbiters", Arbiters: []int{0}},
		"unknown campaign": {Exp: "fig9", Faults: "gremlins"},
		"duplicate app":    {Exp: "table4", Apps: []string{"radix", "radix"}, Work: 1500},
	}
	for name, r := range bad {
		if _, err := r.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize(%+v) succeeded, want error", name, r)
		}
		if _, err := r.Key(); err == nil {
			t.Errorf("%s: Key(%+v) succeeded, want error", name, r)
		}
	}
}

// TestCatalogIsTheOnlyGate: every experiment the catalog lists round-trips
// through Canonicalize, so the service surface and the catalog cannot
// drift apart.
func TestCatalogIsTheOnlyGate(t *testing.T) {
	for _, exp := range experiments.Names() {
		c, err := Request{Exp: exp}.Canonicalize()
		if err != nil {
			t.Errorf("cataloged experiment %q does not canonicalize: %v", exp, err)
			continue
		}
		if len(c.Apps) == 0 || c.Work == 0 || c.Seed == 0 {
			t.Errorf("%q canonical form left defaults unmaterialized: %+v", exp, c)
		}
	}
}

// TestKeysPinned pins the content address of one single-app request and of
// the all-defaults request per experiment. Cached results are keyed by
// these hashes, so a refactor of the catalog or of Canonicalize that
// shifts a default, a cleared field or the encoding shows up here.
func TestKeysPinned(t *testing.T) {
	pinned := map[string][2]string{ // exp -> {apps [radix] work 1000, defaults}
		"fig9":     {"be30235b3c5ea65064700ccf5837a9c864baeaa067d21fd15c8fcbe70855554c", "37117579713c4432c0e3bdad905d9d3cfaee77ec860670236ee936123996db55"},
		"fig10":    {"9e609904572ffdba5b765c5fa11d7f886e80dc4110d2a69cc17c2c406b758cb6", "42ea60d8b1a7e2b2bdbb44568ce607cb9023bbb9880f75582b4c8b97081fc34b"},
		"table3":   {"06fc630e27e6618b2275582d5a2d8a1af28ed0416216140d4aa34c5b75155b95", "14baa8e9f14a0b28956f6e534d5ab65b4601bdbbfb15e96bcb270e30581e7632"},
		"table4":   {"1c628554be11c54f9780eb01d44ad97fba4be2423fb062b80cff68b6992a3f30", "edb3b7231d054d68045cf088dd19bcfdf8b04c0a5bd6abdd6380ad7480418c1a"},
		"fig11":    {"a44bea4189b671df5af6379a312039acd0da2e4deb1e97747abee5554b74bc73", "3b886ae10e0509b825f639eaea503bac4f7102e4290c2341ff0c750e521594d6"},
		"arbiters": {"c1d97c727010b35c1c92b3efb5718b0eaf9280a604b087ee968bfebeff169f4d", "89f24a2a93ecd0c7800c24bf235927978a4cf6fd558e8212c5ae3a0de6684404"},
		"sigspace": {"5ce2a4805ca3e4dd9c427fb941d7876e5e61ccdaed588bef574e5ccc3bc6809b", "ec1e92795d54f0686ff8411e818dd7366354ee070eae92486197e263701b8998"},
		"scaling":  {"1396e04a5f1e709df035fb5091847d5a416985e310801e26b7d12e4c79f852de", "c5e41f82f508643664cae2e7466c4da57c9d4de853d74fc9343663eaf9f762fb"},
		"faults":   {"09b6226221f4ac4709888fe42df7d3809447c41a08522250c09a986eb6c1fd89", "720686483b5e15012bdf0bd599cec6f10aafacff5adb5314dbb30f3369fc5cf1"},
	}
	if got, want := len(experiments.Names()), len(pinned); got != want {
		t.Errorf("catalog has %d experiments, %d are pinned: pin the new one", got, want)
	}
	for _, exp := range experiments.Names() {
		want, ok := pinned[exp]
		if !ok {
			t.Errorf("%s: no pinned key", exp)
			continue
		}
		for i, body := range []string{
			`{"exp":"` + exp + `","apps":["radix"],"work":1000}`,
			`{"exp":"` + exp + `"}`,
		} {
			if got := keyOfJSON(t, body); got != want[i] {
				t.Errorf("Key(%s) = %s, pinned %s", body, got, want[i])
			}
		}
	}
}

// FuzzCanonicalize feeds arbitrary JSON request bodies through the decode
// and canonicalization path of POST /sweep. Canonicalize must never
// panic; whenever it accepts a request, its canonical form must be a
// fixed point with the same cache key, and its apps must be known and
// distinct (a repeated app would run twin cells that cancel in the job
// hash). Its seeds are the checked-in corpus under testdata/fuzz.
func FuzzCanonicalize(f *testing.F) {
	valid := bulksc.Apps()
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&raw) != nil {
			return
		}
		canon, err := raw.Canonicalize()
		if err != nil {
			return
		}
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form %+v rejected: %v", canon, err)
		}
		if !reflect.DeepEqual(canon, again) {
			t.Fatalf("canonicalize not idempotent:\n once: %+v\ntwice: %+v", canon, again)
		}
		k1, err1 := raw.Key()
		k2, err2 := canon.Key()
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("Key(raw) = %s, %v; Key(canon) = %s, %v", k1, err1, k2, err2)
		}
		seen := make(map[string]bool)
		for _, a := range canon.Apps {
			if !slices.Contains(valid, a) || seen[a] {
				t.Fatalf("canonical apps %v: %q unknown or repeated", canon.Apps, a)
			}
			seen[a] = true
		}
	})
}
