// Package directive exercises the //pcsi:allow machinery's failure modes.
package directive

import "time"

// Suppressed reads the clock under a valid doc-comment directive covering
// the whole declaration; no diagnostic.
//
//pcsi:allow wallclock fixture-sanctioned real measurement.
func Suppressed() time.Time { return time.Now() }

// Typo carries a misspelled keyword that must not silence anything.
func Typo() time.Time {
	//pcsi:allow warlclock // want: directive
	return time.Now() // want: simtime
}

// Bare carries a keyword-less directive.
func Bare() {
	// want-next: directive
	//pcsi:allow
}

// Retired suppresses checks that no longer exist; each must be reported as
// unknown so the suppression cannot linger silently.
func Retired() {
	//pcsi:allow lockorder // want: directive
	//pcsi:allow wrapclass // want: directive
}

// Stray carries a directive word that was never or is no longer recognized;
// only //pcsi:allow exists.
//
//pcsi:hotpath // want: directive
func Stray() {}
