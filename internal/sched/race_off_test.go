//go:build !race

package sched_test

const raceDetector = false
