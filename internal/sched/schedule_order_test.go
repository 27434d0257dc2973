package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// randomItems returns n items over k stages with starts below span, duplicates
// included.
func randomItems(rng *rand.Rand, n, k, span int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Block: Block{Stage: rng.Intn(k), Micro: rng.Intn(8)}, Start: rng.Intn(span)}
	}
	return items
}

// TestMergeIsSortOfConcatenation: merging three sorted parts — one of them
// often empty, their items interleaved in time — gives Sort of their
// concatenation. Merged again after dst's items, with one part moved into
// dst's own array at or past len(dst) plus the other parts' items, as
// completeSchedule lays out the body, it gives dst's items followed by the
// same merge, written into that array.
func TestMergeIsSortOfConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := chain4()
	for trial := 0; trial < 2000; trial++ {
		var parts [][]Item
		want := NewSchedule(p)
		for x := 0; x < 3; x++ {
			part := &Schedule{P: p, Items: randomItems(rng, rng.Intn(4)*rng.Intn(12), p.K(), 1+rng.Intn(40))}
			part.Sort()
			parts = append(parts, part.Items)
			want.Items = append(want.Items, part.Items...)
		}
		want.Sort()
		if got := Merge(p, nil, parts...); !slices.Equal(got.Items, want.Items) || got.P != p {
			t.Fatalf("trial %d: merge\n got %v\nwant %v", trial, got.Items, want.Items)
		}

		x, pre := rng.Intn(3), randomItems(rng, rng.Intn(3), p.K(), 40)
		at := len(pre) + want.Len() - len(parts[x]) + rng.Intn(3)
		buf := append(make([]Item, at, at+len(parts[x])), parts[x]...)
		copy(buf, pre)
		aliased := slices.Clone(parts)
		aliased[x] = buf[at:]
		got := Merge(p, buf[:len(pre)], aliased...)
		if !slices.Equal(got.Items, append(pre, want.Items...)) {
			t.Fatalf("trial %d: part %d at %d after %d items: merge\n got %v\nwant %v", trial, x, at, len(pre), got.Items, append(pre, want.Items...))
		}
		if got.Len() > 0 && &got.Items[0] != &buf[0] {
			t.Fatalf("trial %d: merge left dst's array", trial)
		}
	}
	if got := Merge(p, nil); got.Len() != 0 {
		t.Fatalf("merge of nothing holds %d items", got.Len())
	}
}

// TestDeviceItemsOrderIndependent: the per-device lists of a sorted schedule,
// which deviceItems builds without sorting, equal those of a shuffled copy,
// which it sorts — on random schedules over the 8-stage chain.
func TestDeviceItemsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	p := chain4()
	for trial := 0; trial < 1000; trial++ {
		sorted := &Schedule{P: p, Items: randomItems(rng, rng.Intn(60), p.K(), 1+rng.Intn(100))}
		sorted.Sort()
		shuffled := sorted.Clone()
		rng.Shuffle(shuffled.Len(), func(i, j int) { shuffled.Items[i], shuffled.Items[j] = shuffled.Items[j], shuffled.Items[i] })
		got, want := sorted.deviceItems(), shuffled.deviceItems()
		if !slices.EqualFunc(got, want, slices.Equal[[]Item]) {
			t.Fatalf("trial %d: device lists\n sorted:   %v\n shuffled: %v", trial, got, want)
		}
	}
}
