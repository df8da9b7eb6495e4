package experiments

import (
	"bytes"
	"os"
	"testing"
)

// fixtureIDs are the experiments the determinism fixture spans: everything
// that predates the delivery-plane refactor (E15 is excluded — it is new in
// the same PR).
var fixtureIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7",
	"E8", "E9", "E10", "E11", "E12", "E13", "E14"}

// TestPerfectPlaneFixture enforces the determinism contract across engine
// refactors (DESIGN.md 3.3): the raw results JSON of E1–E14 under the
// Perfect fault plane, quick regime, MaxN 128, seed 42, must stay
// byte-identical to the committed fixture. The fixture records the
// behavior of the pre-delivery-plane engine (PR 1): that engine was
// verified byte-identical to the current one on both the full regime (all
// 1867 E1–E14 units) and this quick configuration before the fixture was
// committed. Any change to walk stepping, delivery order, per-node
// seeding, or metric accounting shows up here.
//
// Regenerate (only when a semantic change is intended and documented):
//
//	go run ./cmd/benchsuite -experiments E1,...,E14 -quick -n 128 -seed 42 \
//	    -json internal/experiments/testdata/perfect_quick128.json -render /dev/null
func TestPerfectPlaneFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the capped quick suite (~10 s); skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/perfect_quick128.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SuiteConfig{Seed: 42, Quick: true, MaxN: 128}
	res, err := (&Harness{Config: cfg}).Run(fixtureIDs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("raw results JSON diverged from the pre-refactor fixture: the determinism contract is broken (see test comment)")
	}
}
