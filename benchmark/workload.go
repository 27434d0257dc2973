package main

// The four workloads and their request generators. Every generator is a pure
// function of (workload, seed, client): the same seed gives the same byte
// sequence, so two commits measured with one seed receive identical requests
// and a faster commit only gets further along the same sequence.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

type workloadKind int

const (
	kindCold workloadKind = iota // every request a unique placement name
	kindHot                      // a fixed set of placements that stay cached
	kindZipf                     // Zipf popularity over more identities than cache slots
)

type workload struct {
	name    string
	why     string
	kind    workloadKind
	clients int
	// instances is one pass (cold; an instance may repeat), the cached set
	// (hot) or the base placements the identities are built from (zipf).
	instances []string
	ns        []int // options.n is drawn uniformly from these
	// block is how many consecutive completions form one throughput block:
	// one pass on the cold workloads.
	block int
	// warm is the number of unmeasured requests per client sent before the
	// window opens (after the cache-priming requests of a hot workload).
	warm int
}

// zipfIdentities is the zipf_mix working set: four times the server's
// default 128-entry cache, so the LRU evicts beside every lookup.
const zipfIdentities = 512

var workloads = []workload{
	{
		name: "cold_solver", kind: kindCold, clients: 1,
		why: "unique-name cold misses on solver-bound shapes (m4 k6 k6m8 x8m4): a solver, memo or jobs-mode change does most of its work here",
		// m4 is sent twice per pass: with four equally weighted instances the
		// pooled median would sit on the boundary between two instances'
		// latency clusters and flip between them from run to run.
		instances: []string{"m4", "m4", "k6", "k6m8", "x8m4"},
		ns:        []int{8, 12, 16}, block: 5, warm: 5,
	},
	{
		name: "cold_period", kind: kindCold, clients: 1,
		why:       "unique-name cold misses on period-engine-bound shapes (v6 v6m8 x8i m8i nn6i): a repetend change shows here, a solver change should not",
		instances: []string{"v6", "v6m8", "x8i", "m8i", "nn6i"},
		ns:        []int{8, 12, 16}, block: 5, warm: 5,
	},
	{
		name: "hot_extend", kind: kindHot, clients: 2,
		why:       "ten cached placements at n in 8..256, zero cold searches: serve JSON, engine lookup, core.Extend and schedule encoding only; search-side changes must not move it",
		instances: []string{"v4", "x4", "m4", "k4", "nn4m8", "v4i", "x4i", "m4i", "k4i", "nn4i"},
		ns:        []int{12, 8, 16, 32, 64, 128, 256}, block: 500, warm: 100,
	},
	{
		name: "zipf_mix", kind: kindZipf, clients: 2,
		why:       "Zipf(1.0) over 512 identities against the 128-entry cache: LRU inserts and evictions beside lookups, core.Search beside core.Extend, admission on every miss",
		instances: []string{"v4", "x4", "k4", "m4i", "nn4i", "x4m8", "v6m4", "k6i"},
		ns:        []int{8, 16, 32, 64, 128}, block: 500, warm: 750,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hotWarmN is the micro-batch count the hot placements are first searched
// at, so n = 12 is the exact-N hit and every other n goes through Extend.
const hotWarmN = 12

// request is one generated /v1/search call.
type request struct {
	id   string // "<workload>/<client>/<sequence number>"
	inst *instance
	n    int
	body []byte
	// primer marks a request that puts a hot placement into the cache, the
	// one request of a hot workload that may miss.
	primer bool
}

// generator yields one client's request sequence.
type generator struct {
	wl     *workload
	seed   int64
	client int
	rng    *rand.Rand
	seq    int
	pass   []int // cold: shuffled indices into wl.instances, consumed front to back
	zipf   []float64
	bodies map[string][]byte
}

func newGenerator(wl *workload, seed int64, client int) *generator {
	g := &generator{
		wl: wl, seed: seed, client: client,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + int64(len(wl.name)))),
		bodies: map[string][]byte{},
	}
	if wl.kind == kindZipf {
		g.zipf = zipfCDF(zipfIdentities, 1.0)
	}
	return g
}

// next returns the client's next request.
func (g *generator) next() (*request, error) {
	var inst *instance
	var pname string
	cache := true
	switch g.wl.kind {
	case kindCold:
		if len(g.pass) == 0 {
			g.pass = g.rng.Perm(len(g.wl.instances))
		}
		inst = lookup(g.wl.instances[g.pass[0]])
		g.pass = g.pass[1:]
		pname = fmt.Sprintf("%s-s%d-c%d-%06d", inst.name, g.seed, g.client, g.seq)
		cache = false
	case kindHot:
		inst = lookup(g.wl.instances[g.rng.Intn(len(g.wl.instances))])
		pname = inst.name
	case kindZipf:
		// Rank r maps to base r mod 8 and suffix r div 8, so every base
		// gets the same share of the popularity mass at every rank scale
		// and the seed moves only the draws, not which shapes are popular.
		rank := sort.SearchFloat64s(g.zipf, g.rng.Float64())
		if rank >= len(g.zipf) {
			rank = len(g.zipf) - 1
		}
		inst = lookup(g.wl.instances[rank%len(g.wl.instances)])
		pname = fmt.Sprintf("%s-s%d-%02d", inst.name, g.seed, rank/len(g.wl.instances))
	}
	n := g.wl.ns[g.rng.Intn(len(g.wl.ns))]
	req, err := g.build(inst, pname, n, cache)
	if err != nil {
		return nil, err
	}
	req.id = fmt.Sprintf("%s/%d/%d", g.wl.name, g.client, g.seq)
	g.seq++
	return req, nil
}

// build makes the request, keeping the bodies of repeating identities.
func (g *generator) build(inst *instance, pname string, n int, cache bool) (*request, error) {
	key := fmt.Sprintf("%s|%d", pname, n)
	body, ok := g.bodies[key]
	if !ok {
		var err error
		if body, err = inst.requestBody(pname, n); err != nil {
			return nil, err
		}
		if cache {
			g.bodies[key] = body
		}
	}
	return &request{inst: inst, n: n, body: body}, nil
}

// primers are the requests that put a hot workload's placements into the
// server's cache before anything is measured.
func (wl *workload) primers() ([]*request, error) {
	if wl.kind != kindHot {
		return nil, nil
	}
	var out []*request
	for i, name := range wl.instances {
		inst := lookup(name)
		body, err := inst.requestBody(inst.name, hotWarmN)
		if err != nil {
			return nil, err
		}
		out = append(out, &request{id: fmt.Sprintf("%s/prime/%d", wl.name, i), inst: inst, n: hotWarmN, body: body, primer: true})
	}
	return out, nil
}

// zipfCDF is the cumulative distribution of Zipf(s) over ranks 0..n-1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}
