package main

import (
	"testing"

	"github.com/hpcio/das/internal/predict"
)

// TestMaxOverheadDefaultsToThePlannersBudget: without -max-overhead,
// dasadvise recommends under the same capacity budget the planner uses.
func TestMaxOverheadDefaultsToThePlannersBudget(t *testing.T) {
	if *overhead != predict.DefaultMaxOverhead {
		t.Errorf("-max-overhead defaults to %v, the planner's budget is %v", *overhead, predict.DefaultMaxOverhead)
	}
}
