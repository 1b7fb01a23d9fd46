package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"sort"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/restripe"
)

// TestEveryScenarioOnce runs every experiment at Quick on one fresh Config
// and holds the scenario tables to their contract: a cell's name says what
// it is (equal cells share a name, different cells never do), every step
// of every cell verifies, a second run of a cell is byte-identical (made
// here for the cells no Replayed experiment already runs twice), and the
// whole evaluation builds exactly one platform per distinct cell, plus the
// second run of each cell a Replayed experiment asks for. Each distinct
// cell first runs alone under bufpool.Audit: every pool Put scribbles, so
// a buffer read after it went back fails the cell's verification, and a
// buffer still out once the cell's platform is closed is a leak, reported
// with the cell's name. That one pass also snapshots every cell's counter
// registry for TestEveryCounterMoves.
func TestEveryScenarioOnce(t *testing.T) {
	c := Quick()
	keyOf := make(map[string]string) // name → key
	nameOf := make(map[string]string)
	var distinct, unreplayed []Scenario
	replays := 0
	for _, e := range Experiments() {
		cells := e.Scenarios(c)
		if e.Replayed {
			replays += len(cells)
		}
		for _, s := range cells {
			name, key := s.Name(), s.key()
			if k, ok := keyOf[name]; ok && k != key {
				t.Errorf("%s: two different cells share the name %q", e.ID, name)
			}
			if n, ok := nameOf[key]; ok && n != name {
				t.Errorf("%s: one cell has two names, %q and %q", e.ID, n, name)
			}
			if _, ok := keyOf[name]; !ok {
				distinct = append(distinct, s)
				if !e.Replayed {
					unreplayed = append(unreplayed, s)
				}
			}
			keyOf[name], nameOf[key] = key, name
		}
	}

	quickMoved = runDistinct(t, c, distinct)
	for _, e := range Experiments() {
		_, recs, err := c.Execute(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if len(rec.Steps) == 0 {
				t.Errorf("%s: %q recorded no step", e.ID, rec.Name)
			}
			for i, step := range rec.Steps {
				if !step.Verified {
					t.Errorf("%s: %q step %d not verified", e.ID, rec.Name, i+1)
				}
			}
		}
	}
	if got, want := c.session.platforms, len(distinct)+replays; got != want {
		t.Errorf("the evaluation built %d platforms for %d distinct cells and %d replays", got, len(distinct), replays)
	}

	if testing.Short() {
		return
	}
	for _, s := range unreplayed {
		first, err := c.Run(s) // recorded above
		if err != nil {
			t.Fatal(err)
		}
		second, err := c.RunLive(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(second)
		if !bytes.Equal(a, b) {
			t.Errorf("%q: second run differs:\n%s\n%s", s.Name(), a, b)
		}
	}
}

// TestSelectListsValidNames: an unknown experiment name is an error that
// names the valid ones.
func TestSelectListsValidNames(t *testing.T) {
	if _, err := Select("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments()) {
		t.Fatalf("all: %d experiments, %v", len(all), err)
	}
	if abl, _ := Select("ablations"); len(abl) != 9 {
		t.Errorf("ablations selects %d experiments, want 9", len(abl))
	}
}

// TestEveryAdaptiveKnobIsTurned: every field of the adaptive subsystems'
// configs is set away from its default by some scenario of the evaluation.
// A field no scenario sets is a knob nobody turns; it belongs in a constant
// beside the code that reads it, not in the config.
func TestEveryAdaptiveKnobIsTurned(t *testing.T) {
	turned := make(map[reflect.Type]map[string]bool)
	for _, e := range Experiments() {
		for _, s := range e.Scenarios(Default()) {
			for _, cfg := range []any{s.Cache, s.Restripe, s.Control} {
				v := reflect.ValueOf(cfg)
				if v.IsNil() {
					continue
				}
				v = v.Elem()
				if turned[v.Type()] == nil {
					turned[v.Type()] = make(map[string]bool)
				}
				for i := 0; i < v.NumField(); i++ {
					if !v.Field(i).IsZero() {
						turned[v.Type()][v.Type().Field(i).Name] = true
					}
				}
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(cache.Config{}), reflect.TypeOf(restripe.Config{}), reflect.TypeOf(control.Config{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; !turned[typ][name] {
				t.Errorf("%v.%s is left at its default by every scenario of every experiment", typ, name)
			}
		}
	}
}

// quickMoved is the counter snapshot of TestEveryScenarioOnce's pass over
// the distinct Quick cells: name → nonzero in some cell. Nil until a pass
// has completed.
var quickMoved map[string]bool

// runDistinct runs each of distinct once on c, alone under bufpool.Audit,
// records it for c's later Execute, and returns which registered counters
// some cell moved.
func runDistinct(t *testing.T, c Config, distinct []Scenario) map[string]bool {
	t.Helper()
	moved := make(map[string]bool)
	for _, s := range distinct {
		done := bufpool.Audit()
		rec, err := c.RunLive(s, nil, func(l *Live, _ Record) {
			for name, n := range l.Clu.Counters.Snapshot() {
				moved[name] = moved[name] || n != 0
			}
		})
		if n := done(); n != 0 {
			t.Errorf("%q: %d pooled buffers outstanding after its platform closed", s.Name(), n)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.session.records[s.key()] = rec // Execute reuses it
	}
	return moved
}

// TestEveryCounterMoves: every counter that some Quick cell's platform
// registers counts something in at least one cell — at Quick, or else in
// the committed full-size records. A counter nothing moves reports
// nothing; it belongs deleted, not registered. It reads the snapshot
// TestEveryScenarioOnce took, and makes the pass itself only when run
// without it.
func TestEveryCounterMoves(t *testing.T) {
	moved := quickMoved
	if moved == nil {
		c := Quick()
		var distinct []Scenario
		ran := make(map[string]bool)
		for _, e := range Experiments() {
			for _, s := range e.Scenarios(c) {
				if !ran[s.Name()] {
					ran[s.Name()] = true
					distinct = append(distinct, s)
				}
			}
		}
		moved = runDistinct(t, c, distinct)
	}
	moved = maps.Clone(moved)
	var still []string
	for name, ok := range moved {
		if !ok {
			still = append(still, name)
		}
	}
	if len(still) == 0 {
		return
	}
	for _, rec := range committedRecords(t) {
		for name, n := range rec.Counters {
			if n != 0 {
				moved[name] = true
			}
		}
	}
	sort.Strings(still)
	for _, name := range still {
		if !moved[name] {
			t.Errorf("counter %s is zero in every Quick cell and in every committed record", name)
		}
	}
}
