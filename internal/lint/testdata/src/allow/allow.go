// Test fixture for //das:allow suppression and staleness, run through the
// simclock and directive analyzers under a simulated import path.
package fakeallow

import "time"

var base time.Time

func suppressedSameLine() {
	_ = time.Now() //das:allow simclock -- deliberate wall read to exercise same-line suppression
}

func suppressedAbove() {
	//das:allow simclock -- a standalone directive covers the next line
	_ = time.Now()
}

func suppressedMultiName() {
	//das:allow simclock,detrand -- one directive may name several analyzers
	_ = time.Now()
}

func wrongAnalyzer() {
	//das:allow detrand -- names the wrong analyzer, so simclock still fires below
	_ = time.Now() // want `wall-clock time\.Now in simulated package`
}

func trailingDirectiveDoesNotCoverNextLine() {
	_ = time.Since(base) //das:allow simclock -- a trailing directive covers only its own line
	_ = time.Now() // want `wall-clock time\.Now in simulated package`
}

func directiveTwoLinesUpDoesNotCover() {
	//das:allow simclock -- a standalone directive covers only the line right below it // want `stale //das:allow directive: no simclock finding`
	_ = base.IsZero()
	_ = time.Now() // want `wall-clock time\.Now in simulated package`
}

// An allow that outlived the code it excused suppresses nothing and is
// reported, so exemptions cannot rot in place.
func staleAllow() {
	//das:allow simclock -- obsolete exemption // want `stale //das:allow directive`
	_ = base.IsZero()
}
