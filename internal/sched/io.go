package sched

import (
	"encoding/json"
	"fmt"
	"io"
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
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "forward", "backward", "aux"
	Time    int    `json:"time"`
	Mem     int    `json:"mem"`
	Devices []int  `json:"devices"`
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

// toPlacementJSON builds the on-disk form of p.
func toPlacementJSON(p *Placement) placementJSON {
	out := placementJSON{
		Version:    ioVersion,
		Name:       p.Name,
		NumDevices: p.NumDevices,
		Deps:       p.Deps,
	}
	for i := range p.Stages {
		st := &p.Stages[i]
		devs := make([]int, len(st.Devices))
		for j, d := range st.Devices {
			devs[j] = int(d)
		}
		out.Stages = append(out.Stages, stageJSON{
			Name: st.Name, Kind: kindToString(st.Kind),
			Time: st.Time, Mem: st.Mem, Devices: devs,
		})
	}
	return out
}

// fromPlacementJSON rebuilds and validates a placement from its on-disk
// form.
func fromPlacementJSON(in placementJSON) (*Placement, error) {
	if in.Version != 0 && in.Version != ioVersion {
		return nil, fmt.Errorf("sched: unsupported placement format version %d", in.Version)
	}
	p := &Placement{Name: in.Name, NumDevices: in.NumDevices, Deps: in.Deps}
	if p.Deps == nil {
		p.Deps = make([][]int, len(in.Stages))
	}
	for _, st := range in.Stages {
		kind, err := kindFromString(st.Kind)
		if err != nil {
			return nil, fmt.Errorf("sched: stage %q: %w", st.Name, err)
		}
		devs := make([]DeviceID, len(st.Devices))
		for j, d := range st.Devices {
			devs[j] = DeviceID(d)
		}
		p.Stages = append(p.Stages, Stage{
			Name: st.Name, Kind: kind, Time: st.Time, Mem: st.Mem, Devices: devs,
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

// EncodeSchedule writes s (with its placement) as versioned JSON.
func EncodeSchedule(w io.Writer, s *Schedule) error {
	if s == nil || s.P == nil {
		return fmt.Errorf("sched: nil schedule")
	}
	return encodeIndented(w, scheduleJSON{Version: ioVersion, Placement: toPlacementJSON(s.P), Items: EncodeItems(s)})
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
