package peer

import (
	"fmt"
	"math/rand"
	"testing"
)

// fivePeers is the fleet used by the ring property tests.
func fivePeers() []string {
	return []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
}

// fingerprints mints n distinct pseudo-fingerprints from a fixed seed so
// the property tests are deterministic run to run.
func fingerprints(n int) []string {
	rng := rand.New(rand.NewSource(42))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fp-%016x-%08d", rng.Uint64(), i)
	}
	return out
}

// TestRingDeterministicAcrossInputOrder: the ring must be a pure function
// of the peer *set* — every replica is handed the same -peers flag but
// nothing guarantees the same order, so shuffled and duplicated input must
// produce identical ownership for every fingerprint.
func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	base, err := NewRing(fivePeers())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	fps := fingerprints(1000)
	for trial := 0; trial < 5; trial++ {
		shuffled := fivePeers()
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicates must collapse, not double a peer's vnode share.
		shuffled = append(shuffled, shuffled[0])
		other, err := NewRing(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			a, b := base.Owners(fp, 3), other.Owners(fp, 3)
			if len(a) != len(b) {
				t.Fatalf("trial %d: owner count differs for %s: %v vs %v", trial, fp, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: owners differ for %s: %v vs %v", trial, fp, a, b)
				}
			}
		}
	}
}

// TestRingBalance: with the default virtual-node count, primary ownership
// over 10k random fingerprints must spread so the most-loaded peer carries
// at most 1.3× the least-loaded one — the bound the serving tier's capacity
// planning assumes.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(fivePeers())
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]int{}
	for _, fp := range fingerprints(10000) {
		owners := r.Owners(fp, 1)
		if len(owners) != 1 {
			t.Fatalf("fingerprint %s got %d owners, want 1", fp, len(owners))
		}
		load[owners[0]]++
	}
	if len(load) != len(fivePeers()) {
		t.Fatalf("only %d of %d peers own any key: %v", len(load), len(fivePeers()), load)
	}
	min, max := 1<<31, 0
	for _, n := range load {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if ratio := float64(max) / float64(min); ratio > 1.3 {
		t.Fatalf("ownership imbalance %.3f exceeds 1.3: %v", ratio, load)
	}
}

// TestRingEjectionStability: ejecting one peer must move only that peer's
// keys. Formally, for every fingerprint the post-ejection owner list must
// begin with the pre-ejection list minus the ejected peer (the walk order
// of surviving peers is untouched); readmission must restore the original
// list exactly.
func TestRingEjectionStability(t *testing.T) {
	r, err := NewRing(fivePeers())
	if err != nil {
		t.Fatal(err)
	}
	const victim = "c:3"
	fps := fingerprints(10000)
	before := make([][]string, len(fps))
	for i, fp := range fps {
		before[i] = r.Owners(fp, 2)
	}
	if !r.Eject(victim) {
		t.Fatal("first ejection reported no change")
	}
	if r.Eject(victim) {
		t.Fatal("double ejection reported a change")
	}
	if got := r.Healthy(); got != 4 {
		t.Fatalf("Healthy() = %d after one ejection, want 4", got)
	}
	moved := 0
	for i, fp := range fps {
		var kept []string
		for _, p := range before[i] {
			if p != victim {
				kept = append(kept, p)
			}
		}
		if len(kept) != len(before[i]) {
			moved++
		}
		after := r.Owners(fp, 2)
		if len(after) < len(kept) {
			t.Fatalf("%s: owners %v shrank below surviving prefix %v", fp, after, kept)
		}
		for j, p := range kept {
			if after[j] != p {
				t.Fatalf("%s: surviving owners reordered: before %v, after %v", fp, before[i], after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("ejected peer owned nothing — the test proved nothing")
	}
	if !r.Readmit(victim) {
		t.Fatal("readmission reported no change")
	}
	for i, fp := range fps {
		after := r.Owners(fp, 2)
		for j, p := range before[i] {
			if after[j] != p {
				t.Fatalf("%s: readmission did not restore ownership: before %v, after %v", fp, before[i], after)
			}
		}
	}
}

// TestRingRejectsBadInput: empty lists and empty addresses are construction
// errors, not latent panics.
func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty peer list built a ring")
	}
	if _, err := NewRing([]string{"a:1", ""}); err == nil {
		t.Fatal("empty peer address built a ring")
	}
	r, err := NewRing([]string{"a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Eject("ghost:9") {
		t.Fatal("ejecting a non-member reported a change")
	}
	if got := r.Owners("fp", 0); got != nil {
		t.Fatalf("Owners(n=0) = %v, want nil", got)
	}
}
