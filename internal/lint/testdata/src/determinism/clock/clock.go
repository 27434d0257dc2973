// Package clock is a module-local dependency of the determinism fixture.
// The loader resolves it through export data; a call to its Now must not
// be mistaken for time.Now.
package clock

func Now() int { return 0 }
