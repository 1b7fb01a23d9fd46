package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/experiments"
)

// TestJSONCarriesWhatExpRan: -json writes the records of the experiments
// -exp named, and nothing else. (It used to drop a named experiment and
// write a kernel micro-benchmark report instead.)
func TestJSONCarriesWhatExpRan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig11.json")
	var stdout, stderr bytes.Buffer
	if code := dasbench([]string{"-quick", "-exp", "fig11", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "FIG11 — ") || strings.Contains(stdout.String(), "FIG10") {
		t.Errorf("stdout is not Fig. 11 alone:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name  string
		Steps []struct{ Verified bool }
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("%v in:\n%s", err, data)
	}
	c := experiments.Quick()
	var want []string
	for _, e := range experiments.Experiments() {
		if e.ID == "fig11" {
			for _, s := range e.Scenarios(c) {
				want = append(want, s.Name())
			}
		}
	}
	if len(want) != 9 || len(got) != len(want) {
		t.Fatalf("file holds %d records, Fig. 11 has %d cells", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Name != want[i] || len(rec.Steps) != 1 || !rec.Steps[0].Verified {
			t.Errorf("record %d is %+v, want the verified cell %q", i, rec, want[i])
		}
	}
}

// TestUnknownExperimentListsValidOnes: a misspelt -exp exits 1 naming what
// it could have been, before anything runs or is written.
func TestUnknownExperimentListsValidOnes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never.json")
	var stdout, stderr bytes.Buffer
	if code := dasbench([]string{"-quick", "-exp", "fig11,fig99", "-json", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{`unknown experiment "fig99"`, "all", "ablations", "tableI", "fig11", "ablation-strip-size", "tenants"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("error does not mention %q: %s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before rejecting the name:\n%s", stdout.String())
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("wrote a file despite the error")
	}
}
