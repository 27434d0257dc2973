// Package determinism is the determinism analyzer's fixture: one flagged
// and one allowed form of each nondeterminism source.
package determinism

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"time"

	"tessel/internal/lint/testdata/src/determinism/clock"
)

func mapRangeFlagged(m map[int]int) int {
	total := 0
	for k := range m { // want "map iteration order is nondeterministic"
		total += k
	}
	return total
}

func mapRangeWaived(m map[int]int) int {
	total := 0
	//tessel:orderfree summation is commutative
	for k := range m {
		total += k
	}
	return total
}

func sliceRangeAllowed(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in search code"
}

// moduleClock calls a module-local Now resolved through export data: only
// the standard library's time.Now is flagged.
func moduleClock() int64 {
	wall := time.Now().UnixNano() // want "time.Now in search code"
	return wall + int64(clock.Now())
}

func wallClockWaived() int64 {
	//tessel:waive:determinism telemetry only, never reaches schedule bytes
	return time.Now().UnixNano()
}

func randomness() int {
	return rand.Intn(10) // want "math/rand in search code"
}

func unstableSort(s []int) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) // want "sort.Slice is unstable"
}

func unstableSortFunc(s []int) {
	slices.SortFunc(s, cmp.Compare[int]) // want "slices.SortFunc is unstable"
}

func totalOrderSort(s []int) {
	//tessel:totalorder ints compare totally, every tie is broken
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	//tessel:totalorder ints compare totally, every tie is broken
	slices.SortFunc(s, cmp.Compare[int])
}

func stableSortAllowed(s []int) {
	sort.SliceStable(s, func(i, j int) bool { return s[i] < s[j] })
}
