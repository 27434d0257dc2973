package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
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
	// Devices is never nil on encode, so a stage with no device reads [].
	Devices []DeviceID `json:"devices"`
}

// ioVersion is the current interchange format version.
const ioVersion = 1

func kindToString(k Kind) string { return k.String() }

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

// toPlacementJSON builds the on-disk form of p, which shares p's slices.
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
			Name: st.Name, Kind: kindToString(st.Kind),
			Time: st.Time, Mem: st.Mem, Devices: st.Devices,
		}
		if st.Devices == nil {
			out.Stages[i].Devices = []DeviceID{}
		}
	}
	return out
}

// fromPlacementJSON rebuilds and validates a placement from its on-disk
// form.
func fromPlacementJSON(in placementJSON) (*Placement, error) {
	if in.Version != 0 && in.Version != ioVersion {
		return nil, fmt.Errorf("sched: unsupported placement format version %d", in.Version)
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

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// EncodePlacement writes p as versioned JSON.
func EncodePlacement(w io.Writer, p *Placement) error {
	if p == nil {
		return fmt.Errorf("sched: nil placement")
	}
	return encodeIndented(w, toPlacementJSON(p))
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

// EncodeItems returns the wire form of s's items in their current order; a
// nil schedule encodes as nil (JSON null), an empty one as an empty array.
func EncodeItems(s *Schedule) []ItemJSON {
	if s == nil {
		return nil
	}
	items := make([]ItemJSON, len(s.Items))
	for i, it := range s.Items {
		items[i] = ItemJSON{Stage: it.Stage, Micro: it.Micro, Start: it.Start}
	}
	return items
}

// DecodeItems rebuilds a sorted schedule over p from wire items, checking
// that each references a valid stage and has no negative coordinate (full
// constraint validation is the caller's choice, since the items may hold a
// partial phase).
func DecodeItems(p *Placement, items []ItemJSON) (*Schedule, error) {
	s := NewSchedule(p)
	for _, it := range items {
		if it.Stage < 0 || it.Stage >= p.K() {
			return nil, fmt.Errorf("sched: item references stage %d outside [0,%d)", it.Stage, p.K())
		}
		if it.Micro < 0 || it.Start < 0 {
			return nil, fmt.Errorf("sched: item (%d,%d) has negative micro or start", it.Stage, it.Micro)
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
// gives scheduleJSON under SetIndent("", "  "). The placement, with every
// string in it, does go through encoding/json, so escaping cannot drift; the
// items, all integers and nearly all of the bytes, are appended directly. No
// newline follows the closing brace.
func AppendSchedule(dst []byte, s *Schedule, depth int) ([]byte, error) {
	if s == nil || s.P == nil {
		return dst, fmt.Errorf("sched: nil schedule")
	}
	indent := strings.Repeat("  ", depth+3)
	in1, in2, in3 := indent[4:], indent[2:], indent
	placement, err := json.MarshalIndent(toPlacementJSON(s.P), in1, "  ")
	if err != nil {
		return dst, err
	}
	// The text around the three numbers of one item, indentation included.
	open, micro, start, end := "\n"+in2+"{\n"+in3+`"stage": `, ",\n"+in3+`"micro": `, ",\n"+in3+`"start": `, "\n"+in2+"}"
	// One growth step for the common case of up to four digits a number.
	dst = slices.Grow(dst, len(placement)+128+len(s.Items)*(len(open)+len(micro)+len(start)+len(end)+1+3*4))
	dst = append(dst, "{\n"+in1+`"version": `...)
	dst = strconv.AppendInt(dst, ioVersion, 10)
	dst = append(dst, ",\n"+in1+`"placement": `...)
	dst = append(dst, placement...)
	dst = append(dst, ",\n"+in1+`"items": [`...)
	if len(s.Items) > 0 {
		dst = appendItems(dst, s.Items, open, micro, start, end)
		dst = append(dst, "\n"+in1...)
	}
	return append(dst, "]\n"+in1[2:]+"}"...), nil
}

// appendItems appends the members of a non-empty "items" array between the
// four strings that surround an item's numbers, so the loop does nothing but
// copy and format integers.
func appendItems(dst []byte, items []Item, open, micro, start, end string) []byte {
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, open...)
		dst = strconv.AppendInt(dst, int64(items[i].Stage), 10)
		dst = append(dst, micro...)
		dst = strconv.AppendInt(dst, int64(items[i].Micro), 10)
		dst = append(dst, start...)
		dst = strconv.AppendInt(dst, int64(items[i].Start), 10)
		dst = append(dst, end...)
	}
	return dst
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
