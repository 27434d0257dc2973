//go:build race

package repetend_test

// raceDetector reports that the test binary was built with -race, under which
// the searches of the differential test run an order of magnitude slower.
const raceDetector = true
