// Test fixture for the directive analyzer: malformed das: directives are
// themselves findings, so a typo cannot silently suppress nothing.
//
// The want regexps spell the directives' " -- " separator as " .. ":
// a literal "--" inside the comment would be parsed as the directive's
// own reason separator.
package fakedir

import "time"

//das:allow simclock // want `malformed //das:allow directive: missing ' .. reason'`
var missingReason = time.Duration(0)

//das:allow -- forgot to say which analyzer // want `malformed //das:allow directive: names no analyzer`
var noAnalyzer int

//das:allow nosuchcheck -- suppressing a check that does not exist // want `malformed //das:allow directive: unknown analyzer nosuchcheck`
var unknownAnalyzer int

// A directive of any other kind — retired, misspelled — would otherwise
// sit in the tree looking as if it did something.
//
//das:transfer -- ownership moves to the caller // want `malformed //das:transfer directive: unknown kind, //das:allow is the one directive`
var retired int

//das:alow simclock -- misspelled // want `malformed //das:alow directive: unknown kind`
var misspelled = time.Duration(0)

// Well-formed directives are not findings, even when they suppress
// nothing on their line.
//
//das:allow simclock -- well-formed and inert here
var fine int
