package sched

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"testing"
)

// toPlacementJSON builds the on-disk form of p, which shares p's slices: the
// reflection path the hand-written placement encoder replaced.
func toPlacementJSON(p *Placement) placementJSON {
	out := placementJSON{
		Version:    ioVersion,
		Name:       p.Name,
		NumDevices: p.NumDevices,
		Deps:       p.Deps,
	}
	if len(p.Stages) > 0 { // none still encode as null
		out.Stages = make([]stageJSON, len(p.Stages))
	}
	for i := range p.Stages {
		st := &p.Stages[i]
		out.Stages[i] = stageJSON{
			Name: st.Name, Kind: st.Kind.String(),
			Time: st.Time, Mem: st.Mem, Devices: st.Devices,
		}
		if st.Devices == nil {
			out.Stages[i].Devices = []DeviceID{}
		}
	}
	return out
}

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// referenceSchedule is the schedule encoder AppendSchedule replaced, kept as
// the oracle: reflection over scheduleJSON through json.Encoder with
// SetIndent — and, at depth 1, the compact-and-re-indent pass encoding/json
// gives a RawMessage inside an indented envelope. It returns the object
// without the newline Encode ends with.
func referenceSchedule(t testing.TB, s *Schedule, depth int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeIndented(&buf, scheduleJSON{Version: ioVersion, Placement: toPlacementJSON(s.P), Items: EncodeItems(s)}); err != nil {
		t.Fatal(err)
	}
	if depth == 0 {
		return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}
	var env bytes.Buffer
	if err := encodeIndented(&env, struct {
		Schedule json.RawMessage `json:"schedule"`
	}{buf.Bytes()}); err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimPrefix(env.Bytes(), []byte("{\n  \"schedule\": "))
	return bytes.TrimSuffix(body, []byte("\n}\n"))
}

func checkAppendSchedule(t testing.TB, s *Schedule) {
	t.Helper()
	var got, want bytes.Buffer
	if err := EncodePlacement(&got, s.P); err != nil {
		t.Fatal(err)
	}
	if err := encodeIndented(&want, toPlacementJSON(s.P)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("EncodePlacement differs from encoding/json\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
	for depth := 0; depth <= 1; depth++ {
		got, err := AppendSchedule([]byte("prefix"), s, depth)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("prefix"), referenceSchedule(t, s, depth)...); !bytes.Equal(got, want) {
			t.Fatalf("depth %d: AppendSchedule differs from encoding/json\n got: %s\nwant: %s", depth, got, want)
		}
	}
}

// TestAppendScheduleMatchesEncodingJSON covers what a search result never
// holds but the encoder must still write as encoding/json would: names that
// need escaping — HTML, U+2028 and U+2029, invalid and truncated UTF-8,
// control characters with and without a short escape, U+FFFD itself — a kind
// with no name, nil and empty dependency lists, no items, no stages.
// EncodePlacement is held to the same reference.
func TestAppendScheduleMatchesEncodingJSON(t *testing.T) {
	p := chain4()
	p.Name = "a\"<b>& \u2028é\xff\\"
	p.Stages[1].Name = "</script>\u2029\x7f"
	p.Stages[2].Name = "\x00\x01\b\f\n\r\t\x1f\ufffd\xe2\x80"
	p.Stages[3].Kind = Kind(7)
	p.Deps[3] = nil
	p.Deps[4] = []int{}
	s := sequentialSchedule(p, 3)
	s.Add(2, -1, -7) // negative numbers are not valid, but they are encodable
	checkAppendSchedule(t, s)
	checkAppendSchedule(t, NewSchedule(p))
	checkAppendSchedule(t, &Schedule{P: p, Items: []Item{}})
	checkAppendSchedule(t, NewSchedule(&Placement{Name: "empty"}))

	// The reference shares toPlacementJSON with the encoder, so pin by hand
	// the one thing it decides: a stage with no device list reads [].
	p.Stages[0].Devices = nil
	got, err := AppendSchedule(nil, NewSchedule(p), 0)
	if err != nil || !bytes.Contains(got, []byte(`"devices": []`)) || bytes.Contains(got, []byte(`"devices": null`)) {
		t.Fatalf("nil device list: %v\n%s", err, got)
	}
}

// TestAppendItemsFormatsIntegers holds the two-digit table to strconv at each
// edge of its digit counts and at both ends of the table's range, every value
// in each of an item's three places, and appendInt alone to strconv over
// [-1000, 100000), all of the table and both of its ends. A stage's prefix
// from the item text table must read as the stage written between open and
// micro, at both depths, for every stage of the table.
func TestAppendItemsFormatsIntegers(t *testing.T) {
	text := itemText{open: []byte(",<"), micro: []byte(" "), start: []byte(" "), end: []byte(">")}
	for _, v := range []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, -1, math.MaxInt, math.MinInt} {
		items := []Item{{Block{v, 1}, 2}, {Block{3, v}, 4}, {Block{5, 6}, v}}
		got := text.appendItems([]byte("x"), items)
		s := strconv.Itoa(v)
		if want := "x,<" + s + " 1 2>,<3 " + s + " 4>,<5 6 " + s + ">"; string(got) != want {
			t.Errorf("%d: appendItems wrote %q, want %q", v, got, want)
		}
	}
	for depth := 0; depth <= 1; depth++ {
		const k = 300 // past the stack buffers AppendMerged hands in
		table := newItemText(depth, k, nil, nil)
		bare := table
		bare.stages = 0
		for stage := -1; stage <= k; stage++ {
			items := []Item{{Block{stage, 7}, 11}, {Block{stage, 10000}, 0}}
			if got, want := table.appendItems(nil, items), bare.appendItems(nil, items); !bytes.Equal(got, want) {
				t.Fatalf("depth %d stage %d: the table wrote %q, want %q", depth, stage, got, want)
			}
		}
	}
	for v := -1000; v < 100000; v++ {
		if got, want := appendInt([]byte("x"), v), strconv.AppendInt([]byte("x"), int64(v), 10); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
		}
	}
}

// FuzzAppendSchedule builds a small schedule from the fuzzer's bytes — names,
// stage and device counts, dependency lists and items — and holds
// AppendSchedule to the bytes of the reference encoder at both depths. It
// also deals the items into one to three parts, sorts each, and holds
// AppendMerged of the parts to AppendSchedule of their Merge.
func FuzzAppendSchedule(f *testing.F) {
	f.Add("m-shape", "f0", []byte{4, 2, 0, 1, 2, 3, 9, 9, 9})
	f.Add("a\"<&> ", "\xff\x00", []byte{1, 1, 0})
	f.Add("", "", []byte{})
	f.Fuzz(func(t *testing.T, name, stage string, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p := &Placement{Name: name, NumDevices: next() % 5}
		for i, k := 0, next()%6; i < k; i++ {
			st := Stage{Name: stage, Kind: Kind(next() % 3), Time: next(), Mem: next() - 128}
			for d := next() % 3; d > 0; d-- {
				st.Devices = append(st.Devices, DeviceID(next()%5))
			}
			p.Stages = append(p.Stages, st)
			switch next() % 3 {
			case 0:
				p.Deps = append(p.Deps, nil)
			case 1:
				p.Deps = append(p.Deps, []int{})
			default:
				p.Deps = append(p.Deps, []int{next(), next()})
			}
		}
		s := NewSchedule(p)
		for len(data) >= 3 {
			s.Add(next(), next(), next()<<(next()%24)-1)
		}
		checkAppendSchedule(t, s)

		parts := make([][]Item, 1+len(name)%3)
		for i, it := range s.Items {
			x := (i + it.Stage + it.Micro) % len(parts)
			parts[x] = append(parts[x], it)
		}
		for _, q := range parts {
			slices.SortFunc(q, compareItems)
		}
		for depth := 0; depth <= 1; depth++ {
			want, err := AppendSchedule([]byte("prefix"), Merge(p, nil, parts...), depth)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendMerged([]byte("prefix"), p, depth, parts...); !bytes.Equal(got, want) {
				t.Fatalf("depth %d, %d parts: AppendMerged differs from AppendSchedule of the merge\n got: %s\nwant: %s", depth, len(parts), got, want)
			}
		}
	})
}
