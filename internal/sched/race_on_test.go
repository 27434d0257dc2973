//go:build race

package sched_test

// raceDetector reports that the test binary was built with -race, under
// which sync.Pool drops a share of what is put into it and allocation
// counts stop being the program's own.
const raceDetector = true
