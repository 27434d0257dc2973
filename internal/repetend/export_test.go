package repetend

import (
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// What the external tests of this directory (package repetend_test, which may
// import core) need of the package's insides.

// OrderNodeCap is the production node cap of the order check.
const OrderNodeCap = orderNodeCap

// SetOrderNodeLimit runs the rest of the test with the order check's node cap
// at n: 0 leaves only what propagation decides, negative switches the check
// off, and with it the forced-pair half of the prefix filter.
func SetOrderNodeLimit(t testing.TB, n int) {
	prev := orderNodeLimit
	orderNodeLimit = n
	t.Cleanup(func() { orderNodeLimit = prev })
}

// WithOrderNodeLimit runs f with the order check's node cap at n, and puts
// the cap back.
func WithOrderNodeLimit(n int, f func()) {
	prev := orderNodeLimit
	orderNodeLimit = n
	defer func() { orderNodeLimit = prev }()
	f()
}

// SetPrefixFilter runs the rest of the test with NewPrefixFilter returning the
// filter (on) or the unfiltered walk (off).
func SetPrefixFilter(t testing.TB, on bool) {
	prev := prefixFilterOn
	prefixFilterOn = on
	t.Cleanup(func() { prefixFilterOn = prev })
}

// CatalogShape is one of the 21 placements of the repository benchmark's
// catalog (benchmark/catalog.go; internal/core's tests carry the same table).
type CatalogShape struct {
	Name      string
	Build     func(placement.Config) (*sched.Placement, error)
	Devices   int
	Inference bool
	Memory    int
}

// Placement builds the shape.
func (c CatalogShape) Placement(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := c.Build(placement.Config{Devices: c.Devices})
	if err != nil {
		t.Fatal(err)
	}
	if c.Inference {
		p = placement.Inference(p)
	}
	return p
}

// Catalog lists the catalog. The three placements whose memory cap keeps every
// repetend above the lower bound are x8m4, nn4m8 and v6m4.
var Catalog = []CatalogShape{
	{"m4", placement.MShape, 4, false, 0}, {"k6", placement.KShape, 6, false, 0},
	{"k6m8", placement.KShape, 6, false, 8}, {"x8m4", placement.XShape, 8, false, 4},
	{"v6", placement.VShape, 6, false, 0}, {"v6m8", placement.VShape, 6, false, 8},
	{"x8i", placement.XShape, 8, true, 0}, {"m8i", placement.MShape, 8, true, 0},
	{"nn6i", placement.NNShape, 6, true, 0}, {"v4", placement.VShape, 4, false, 0},
	{"x4", placement.XShape, 4, false, 0}, {"k4", placement.KShape, 4, false, 0},
	{"nn4m8", placement.NNShape, 4, false, 8}, {"v4i", placement.VShape, 4, true, 0},
	{"x4i", placement.XShape, 4, true, 0}, {"m4i", placement.MShape, 4, true, 0},
	{"k4i", placement.KShape, 4, true, 0}, {"nn4i", placement.NNShape, 4, true, 0},
	{"x4m8", placement.XShape, 4, false, 8}, {"v6m4", placement.VShape, 6, false, 4},
	{"k6i", placement.KShape, 6, true, 0},
}
