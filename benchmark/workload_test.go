package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sequence(t *testing.T, wl *workload, seed int64, client, n int) []*request {
	t.Helper()
	g := newGenerator(wl, seed, client)
	out := make([]*request, n)
	for i := range out {
		var err error
		if out[i], err = g.next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// The same seed gives the same bytes; another seed or client does not.
func TestGeneratorDeterministic(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b := sequence(t, wl, 7, 0, 200), sequence(t, wl, 7, 0, 200)
		other, sibling := sequence(t, wl, 8, 0, 200), sequence(t, wl, 7, 1, 200)
		same := func(x, y []*request) bool {
			for i := range x {
				if x[i].id != y[i].id || !bytes.Equal(x[i].body, y[i].body) {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", wl.name)
		}
		bodiesDiffer := func(x, y []*request) bool {
			for i := range x {
				if !bytes.Equal(x[i].body, y[i].body) {
					return true
				}
			}
			return false
		}
		if !bodiesDiffer(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", wl.name)
		}
		if !bodiesDiffer(a, sibling) {
			t.Errorf("%s: clients 0 and 1 gave the same sequence", wl.name)
		}
	}
}

// A cold pass sends exactly the workload's instances, under names no other
// request carries, so every request is a cold miss doing identical work.
func TestColdPasses(t *testing.T) {
	for _, name := range []string{"cold_solver", "cold_period"} {
		wl := findWorkload(name)
		reqs := sequence(t, wl, 3, 0, 4*wl.block)
		seen := map[string]bool{}
		for pass := 0; pass < 4; pass++ {
			count := map[string]int{}
			for _, r := range reqs[pass*wl.block : (pass+1)*wl.block] {
				count[r.inst.name]++
				if seen[string(r.body)] {
					t.Errorf("%s: request %s repeats an earlier body", name, r.id)
				}
				seen[string(r.body)] = true
				if r.n < 8 {
					t.Errorf("%s: n = %d would fall into the direct solve", name, r.n)
				}
			}
			want := map[string]int{}
			for _, in := range wl.instances {
				want[in]++
			}
			for in, c := range want {
				if count[in] != c {
					t.Errorf("%s pass %d: %d requests for %s, want %d", name, pass, count[in], in, c)
				}
			}
		}
	}
}

// The Zipf sampler follows 1/rank: the head rank and the share of draws
// that fit the server's cache are where the distribution says.
func TestZipfShape(t *testing.T) {
	cdf := zipfCDF(zipfIdentities, 1.0)
	h := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / float64(i)
		}
		return s
	}
	if want := 1 / h(zipfIdentities); math.Abs(cdf[0]-want) > 1e-12 {
		t.Errorf("P(rank 0) = %v, want %v", cdf[0], want)
	}
	if want := h(128) / h(zipfIdentities); math.Abs(cdf[127]-want) > 1e-12 {
		t.Errorf("P(rank < 128) = %v, want %v", cdf[127], want)
	}
	if cdf[len(cdf)-1] != 1 {
		t.Errorf("CDF ends at %v, want 1", cdf[len(cdf)-1])
	}

	wl := findWorkload("zipf_mix")
	const draws = 20000
	count := map[string]int{}
	bases := map[string]int{}
	for _, r := range sequence(t, wl, 5, 0, draws) {
		var body struct {
			Placement struct {
				Name string `json:"name"`
			} `json:"placement"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		count[body.Placement.Name]++
		bases[r.inst.name]++
	}
	if len(count) < 400 || len(count) > zipfIdentities {
		t.Errorf("%d distinct identities in %d draws, want most of %d", len(count), draws, zipfIdentities)
	}
	top := 0
	for _, c := range count {
		if c > top {
			top = c
		}
	}
	if got, want := float64(top)/draws, cdf[0]; math.Abs(got-want) > 0.02 {
		t.Errorf("most popular identity drew %.3f of requests, want about %.3f", got, want)
	}
	// Ranks are dealt to the bases round-robin, so no base is starved.
	for _, in := range wl.instances {
		if share := float64(bases[in]) / draws; share < 0.05 {
			t.Errorf("base %s got %.3f of the draws", in, share)
		}
	}
}

func TestHotPrimers(t *testing.T) {
	wl := findWorkload("hot_extend")
	primers, err := wl.primers()
	if err != nil {
		t.Fatal(err)
	}
	if len(primers) != len(wl.instances) {
		t.Fatalf("%d primers for %d placements", len(primers), len(wl.instances))
	}
	for _, r := range sequence(t, wl, 1, 0, 500) {
		if !strings.Contains(string(r.body), `"name":"`+r.inst.name+`"`) {
			t.Fatalf("hot request %s is not for a primed placement: %.80s", r.id, r.body)
		}
	}
}
