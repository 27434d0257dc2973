//go:build !race

package repetend_test

const raceDetector = false
