package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The JSON interchange format lets users define custom placements for the
// CLI and persist searched schedules. It is versioned and self-describing;
// Decode functions validate structurally before returning.

// placementJSON is the on-disk form of a Placement.
type placementJSON struct {
	Version    int         `json:"version"`
	Name       string      `json:"name"`
	NumDevices int         `json:"num_devices"`
	Stages     []stageJSON `json:"stages"`
	// Deps[i] lists the stage indices depending on stage i.
	Deps [][]int `json:"deps"`
}

type stageJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "forward", "backward", "aux"
	Time int    `json:"time"`
	Mem  int    `json:"mem"`
	// Devices is never null on encode: a stage with no device reads [].
	Devices []DeviceID `json:"devices"`
}

// ioVersion is the current interchange format version.
const ioVersion = 1

func kindFromString(s string) (Kind, error) {
	switch s {
	case "forward", "":
		return Forward, nil
	case "backward":
		return Backward, nil
	case "aux":
		return Aux, nil
	default:
		return 0, fmt.Errorf("unknown block kind %q", s)
	}
}

// fromPlacementJSON rebuilds and validates a placement from its on-disk
// form.
func fromPlacementJSON(in placementJSON) (*Placement, error) {
	if in.Version != 0 && in.Version != ioVersion {
		return nil, fmt.Errorf("sched: unsupported placement format version %d", in.Version)
	}
	if len(in.Stages) > maxStages {
		return nil, fmt.Errorf("sched: placement %q: %d stages above the cap %d", in.Name, len(in.Stages), maxStages)
	}
	p := &Placement{Name: in.Name, NumDevices: in.NumDevices, Deps: in.Deps, Stages: make([]Stage, 0, len(in.Stages))}
	if p.Deps == nil {
		p.Deps = make([][]int, len(in.Stages))
	}
	for _, st := range in.Stages {
		kind, err := kindFromString(st.Kind)
		if err != nil {
			return nil, fmt.Errorf("sched: stage %q: %w", st.Name, err)
		}
		p.Stages = append(p.Stages, Stage{
			Name: st.Name, Kind: kind, Time: st.Time, Mem: st.Mem, Devices: st.Devices,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// PlacementJSON is a placement as decoded, not yet validated: a document that
// embeds one decodes it in its own pass, and Placement checks it.
type PlacementJSON struct{ placementJSON }

// Placement rebuilds and validates the decoded placement.
func (in *PlacementJSON) Placement() (*Placement, error) { return fromPlacementJSON(in.placementJSON) }

// EncodePlacement writes p as versioned JSON, indented by two spaces a level.
func EncodePlacement(w io.Writer, p *Placement) error {
	if p == nil {
		return fmt.Errorf("sched: nil placement")
	}
	_, err := w.Write(append(appendPlacement(nil, p, "\n        "), '\n'))
	return err
}

// appendPlacement appends p's on-disk form as encoding/json indents it — no
// stages read null, a nil device list [], a nil dependency list null. nl is a
// newline, the indentation of p's closing brace and eight spaces more.
func appendPlacement(dst []byte, p *Placement, nl string) []byte {
	// line(l) starts a line l levels in; member starts a member on one.
	line := func(l int) string { return nl[:len(nl)-8+2*l] }
	member := func(l int, name string) {
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = append(append(append(append(dst, line(l)...), '"'), name...), `": `...)
	}
	num := func(l int, name string, v int) { member(l, name); dst = strconv.AppendInt(dst, int64(v), 10) }
	str := func(l int, name, v string) { member(l, name); dst = AppendString(dst, v) }
	dst = append(dst, '{')
	num(1, "version", ioVersion)
	str(1, "name", p.Name)
	num(1, "num_devices", p.NumDevices)
	member(1, "stages")
	for i := range p.Stages {
		st := &p.Stages[i]
		dst = append(append(append(dst, "[,"[min(i, 1)]), line(2)...), '{')
		str(3, "name", st.Name)
		str(3, "kind", st.Kind.String())
		num(3, "time", st.Time)
		num(3, "mem", st.Mem)
		member(3, "devices")
		dst = append(append(AppendInts(dst, st.Devices, false, line(4)), line(2)...), '}')
	}
	if len(p.Stages) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(append(dst, line(1)...), ']')
	}
	member(1, "deps")
	for i, succ := range p.Deps {
		dst = AppendInts(append(append(dst, "[,"[min(i, 1)]), line(2)...), succ, true, line(3))
	}
	switch {
	case p.Deps == nil:
		dst = append(dst, "null"...)
	case len(p.Deps) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(append(dst, line(1)...), ']')
	}
	return append(append(dst, line(0)...), '}')
}

// AppendInts appends xs as encoding/json indents an array, numbers on lines
// nl: [] when empty, null when nil and nilIsNull.
func AppendInts[T ~int](dst []byte, xs []T, nilIsNull bool, nl string) []byte {
	switch {
	case xs == nil && nilIsNull:
		return append(dst, "null"...)
	case len(xs) == 0:
		return append(dst, "[]"...)
	}
	for i, x := range xs {
		dst = strconv.AppendInt(append(append(dst, "[,"[min(i, 1)]), nl...), int64(x), 10)
	}
	return append(append(dst, nl[:len(nl)-2]...), ']')
}

// AppendString appends s quoted as encoding/json quotes it. A string of
// printable ASCII that JSON and HTML leave alone, as names and fingerprints
// are, is copied as it is; any other goes through encoding/json.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// DecodePlacement reads a placement from JSON and validates it.
func DecodePlacement(r io.Reader) (*Placement, error) {
	var in placementJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("sched: decode placement: %w", err)
	}
	return fromPlacementJSON(in)
}

// scheduleJSON is the on-disk form of a Schedule; the placement is embedded
// so a schedule file is self-contained.
type scheduleJSON struct {
	Version   int           `json:"version"`
	Placement placementJSON `json:"placement"`
	Items     []ItemJSON    `json:"items"`
}

// ItemJSON is the wire form of one scheduled block. Schedule files, cache
// snapshots and peer entries all carry their schedules as these triples.
type ItemJSON struct {
	Stage int `json:"stage"`
	Micro int `json:"micro"`
	Start int `json:"start"`
}

// EncodeItems returns the wire form of s's items in their current order.
func EncodeItems(s *Schedule) []ItemJSON {
	items := make([]ItemJSON, len(s.Items))
	for i, it := range s.Items {
		items[i] = ItemJSON{Stage: it.Stage, Micro: it.Micro, Start: it.Start}
	}
	return items
}

// DecodeItems rebuilds a sorted schedule over p from wire items, checking
// that each references a valid stage, has no negative coordinate and starts
// by math.MaxInt − MaxStageTime, so that its finish time cannot wrap negative
// and pass every constraint that reads it. Constraint validation is the
// caller's.
func DecodeItems(p *Placement, items []ItemJSON) (*Schedule, error) {
	s := NewSchedule(p)
	for _, it := range items {
		if it.Stage < 0 || it.Stage >= p.K() {
			return nil, fmt.Errorf("sched: item references stage %d outside [0,%d)", it.Stage, p.K())
		}
		if it.Micro < 0 || it.Start < 0 || it.Start > math.MaxInt-MaxStageTime {
			return nil, fmt.Errorf("sched: item (%d,%d) has a negative micro or a start outside [0,%d]", it.Stage, it.Micro, math.MaxInt-MaxStageTime)
		}
		s.Add(it.Stage, it.Micro, it.Start)
	}
	s.Sort()
	return s, nil
}

// EncodeSchedule writes s (with its placement) as versioned JSON: the bytes
// of AppendSchedule at depth 0 and a final newline.
func EncodeSchedule(w io.Writer, s *Schedule) error {
	b, err := AppendSchedule(nil, s, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// AppendSchedule appends the versioned JSON object of s, indented by two
// spaces per level, as it reads when nested depth levels inside another
// indented document: depth 0 is a schedule file, depth 1 a member of a
// top-level object. It is the one schedule encoder — files, the CLI and the
// /v1/search response all carry these bytes, which are those encoding/json
// gives scheduleJSON under SetIndent("", "  ") — and writes them in one pass
// with no reflection: the placement as EncodePlacement does, its strings
// escaped as encoding/json escapes them, and the items, all integers and
// nearly all of the bytes, directly, in their current order. It is the
// one-part case of AppendMerged. No newline follows the closing brace.
func AppendSchedule(dst []byte, s *Schedule, depth int) ([]byte, error) {
	if s == nil || s.P == nil {
		return dst, fmt.Errorf("sched: nil schedule")
	}
	return AppendMerged(dst, s.P, depth, s.Items), nil
}

// AppendMerged appends the bytes AppendSchedule writes for Merge(p, nil,
// parts...), each part in (Start, Stage, Micro) order, without building the
// merge: each run of the merge (mergeRuns) is formatted where it lies. A
// certified cache hit is written this way from its warmup, body and cooldown.
// p must not be nil.
func AppendMerged(dst []byte, p *Placement, depth int, parts ...[]Item) []byte {
	// A newline and the indentation of the placement's deepest line.
	nl := "\n" + strings.Repeat("  ", depth+5)
	in1 := nl[1 : 3+2*depth]
	var text [4096]byte // the item text of up to about 80 stages, on the stack
	var at [129]int32
	t := newItemText(depth, p.K(), text[:0], at[:0])
	n := 0
	for _, q := range parts {
		n += len(q)
	}
	// One growth step for the common case of up to four digits a number.
	dst = slices.Grow(dst, 256+192*p.K()+n*(len(t.open)+len(t.micro)+len(t.start)+len(t.end)+3*4))
	dst = append(dst, "{\n"+in1+`"version": `...)
	dst = strconv.AppendInt(dst, ioVersion, 10)
	dst = append(dst, ",\n"+in1+`"placement": `...)
	dst = appendPlacement(dst, p, nl)
	dst = append(dst, ",\n"+in1+`"items": `...)
	// Every item is written after a comma; the first one's becomes the '['.
	first := len(dst)
	mergeRuns(parts, func(run []Item) { dst = t.appendItems(dst, run) })
	if len(dst) == first {
		return append(dst, "[]\n"+in1[2:]+"}"...)
	}
	dst[first] = '['
	return append(dst, "\n"+in1+"]\n"+in1[2:]+"}"...)
}

// itemText is the text around an item's numbers at one depth, indentation
// included, so that writing an item does nothing but copy and format
// integers. An item of stage i in the table is its prefix — the comma before
// it, its opening brace, "stage": i and the name of "micro" — its micro, the
// name of "start", its start and the closing brace: two integers and three
// copies. Any other stage is written between open and micro.
type itemText struct {
	text                    []byte  // open, micro, start and end, then the table's prefixes
	at                      []int32 // stage i < stages has the prefix text[at[i]:at[i+1]]
	stages                  int
	open, micro, start, end []byte
}

// newItemText returns the item text of depth with a table of k stages'
// prefixes. It builds in text and at, which grow past their capacity for a
// large k.
func newItemText(depth, k int, text []byte, at []int32) itemText {
	line := func(b []byte, indent int) []byte {
		b = append(b, '\n')
		for range indent {
			b = append(b, ' ')
		}
		return b
	}
	in2, in3 := 4+2*depth, 6+2*depth
	text = append(line(append(line(append(text, ','), in2), '{'), in3), `"stage": `...)
	o := len(text)
	text = append(line(append(text, ','), in3), `"micro": `...)
	m := len(text)
	text = append(line(append(text, ','), in3), `"start": `...)
	s := len(text)
	text = append(line(text, in2), '}')
	e := len(text)
	for i := range k {
		at = append(at, int32(len(text)))
		text = append(appendInt(append(text, text[:o]...), i), text[o:m]...)
	}
	at = append(at, int32(len(text)))
	return itemText{text: text, at: at, stages: k, open: text[:o], micro: text[o:m], start: text[m:s], end: text[s:e]}
}

// appendItems appends items, each after a comma.
func (t *itemText) appendItems(dst []byte, items []Item) []byte {
	for i := range items {
		it := &items[i]
		if uint(it.Stage) < uint(t.stages) {
			dst = append(dst, t.text[t.at[it.Stage]:t.at[it.Stage+1]]...)
		} else {
			dst = append(appendInt(append(dst, t.open...), it.Stage), t.micro...)
		}
		dst = appendInt(dst, it.Micro)
		dst = append(dst, t.start...)
		dst = appendInt(dst, it.Start)
		dst = append(dst, t.end...)
	}
	return dst
}

// digitPairs is "00" through "99", the table appendInt formats from.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt appends v in decimal, the bytes of strconv.AppendInt. A value in
// [0, 10000), as nearly every stage, micro-batch and start time of a served
// schedule is, is copied from the two-digit table; any other, negatives
// included, goes through strconv.
func appendInt(dst []byte, v int) []byte {
	switch {
	case v < 0 || v >= 10000:
		return strconv.AppendInt(dst, int64(v), 10)
	case v < 10:
		return append(dst, byte('0'+v))
	case v < 100:
		return append(dst, digitPairs[2*v:2*v+2]...)
	}
	hi, lo := v/100, v%100
	if hi < 10 {
		dst = append(dst, byte('0'+hi))
	} else {
		dst = append(dst, digitPairs[2*hi:2*hi+2]...)
	}
	return append(dst, digitPairs[2*lo:2*lo+2]...)
}

// DecodeSchedule reads a self-contained schedule and checks it references
// valid stages (see DecodeItems).
func DecodeSchedule(r io.Reader) (*Schedule, error) {
	var in scheduleJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("sched: decode schedule: %w", err)
	}
	if in.Version != 0 && in.Version != ioVersion {
		return nil, fmt.Errorf("sched: unsupported schedule format version %d", in.Version)
	}
	p, err := fromPlacementJSON(in.Placement)
	if err != nil {
		return nil, err
	}
	return DecodeItems(p, in.Items)
}
