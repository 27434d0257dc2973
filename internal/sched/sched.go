// Package sched defines the scheduling data model used throughout Tessel:
// operator placements (Figure 1 of the paper), blocks, schedules, and the
// validity constraints and metrics from the problem formulation in §III-A
// (Equation 1): exclusive per-device execution, per-device memory capacity,
// and data-dependency ordering.
//
// Times and memory costs are integers, exactly as in the paper, which keeps
// the model compatible with exact solvers and makes equality comparisons in
// tests meaningful.
//
// The package also owns the two byte forms of its types. The canonical
// encoding (canonical.go) is the identity of a placement or a schedule:
// Fingerprint keys the serving cache, FingerprintSchedule is what "the same
// schedule" means in tests and in the benchmark. The JSON interchange format
// (io.go) is what files, the CLI and the /v1/search response carry. It is
// written by hand, with no reflection: a schedule has one JSON encoder,
// AppendSchedule, which writes the indented bytes in a single pass at
// whatever depth the schedule sits in its document (EncodeSchedule is that
// encoder at depth 0), and its placement is written as EncodePlacement writes
// one, strings escaped as encoding/json escapes them. A document that embeds
// a placement decodes it in its own pass into a PlacementJSON.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DeviceID identifies one accelerator in the cluster. Devices are numbered
// 0..D-1 and are assumed homogeneous (same speed, same memory capacity),
// matching the paper's formulation.
type DeviceID int

// Kind distinguishes the role of a block. The search treats all kinds
// uniformly; the distinction matters for building inference variants
// (backward blocks are dropped), for cost models (recompute triples backward
// time), and for rendering.
type Kind int

const (
	// Forward marks a forward-computation block. Forward blocks typically
	// allocate activation memory (positive Mem).
	Forward Kind = iota
	// Backward marks a backward-computation block. Backward blocks typically
	// release activation memory (negative Mem).
	Backward
	// Aux marks blocks that are neither (e.g. optimizer steps or standalone
	// communication blocks modeled as compute).
	Aux
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Aux:
		return "aux"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unbounded is the memory capacity value meaning "no memory constraint".
const Unbounded = math.MaxInt / 4

// MaxStageTime is the largest Stage.Time Validate accepts. Every time the
// search forms is a sum of stage times, some of them multiples of one
// micro-batch's work, and the order check's no-path sentinel (repetend's
// orderNone) needs every such sum below 2^60. The cap keeps them below 2^58:
//   - a placement in a 1 MiB request body has fewer than 2^16 stages (a valid
//     stage object takes at least 24 bytes), so one micro-batch's work, and
//     with it any period the search tries, is below 2^40;
//   - a schedule of B blocks ends by B·MaxStageTime, below 2^58 for any
//     schedule of fewer than 2^34 blocks — more than fit in memory;
//   - the period engine's dependency edges weigh at most N_R periods, below
//     2^58 for N_R ≤ 2^18, which is as far as core.Search lets a sweep go
//     (core.MaxNRLimit);
//   - the order check's closure (at most 128 stages, see repetend's
//     orderNone) sums walks of at most 256 such edges, below 2^58 for N_R ≤
//     2^19.
//
// Far larger times wrap those sums around, to negative start times.
const MaxStageTime = 1 << 24

// MaxStageMem is the largest |Stage.Mem| Validate accepts. Every memory sum
// the search and Schedule.Validate form — a device's usage after some of its
// blocks started, plus a candidate's delta — adds at most (N + N_R)·K deltas
// of a K-stage placement, below 2^58 for any schedule of fewer than 2^34
// blocks, so it stays far from overflow and compares truly against any
// capacity. Far larger deltas wrap it around: two +2^62 blocks on one device
// read as a negative peak that fits every cap.
const MaxStageMem = 1 << 24

// maxDevices is the largest NumDevices Validate accepts. Validating a
// schedule, and every solve of a search, allocates state per device, so a
// placement naming 10^12 devices would exhaust memory before any stage is
// looked at; 2^16 is far beyond any pipeline a search can handle and keeps
// that state under a megabyte.
const maxDevices = 1 << 16

// maxStages caps the stages of a decoded placement (files, request bodies,
// snapshot and peer entries; not placements built in Go): a search's first
// repetend solve grows with the square of a device's stage count, so a 1 MiB
// body of 30,000 one-device stages would exhaust memory. 256 is twice the
// order check's stage cap, above nn-shape's 130 stages at 32 devices.
const maxStages = 256

// Stage is one execution block template within a single micro-batch: a
// subset of the model's operators placed on one device or, when tensor
// parallelism is used, on a group of devices (paper §III-A, B^n_i for a
// fixed i). A Stage is instantiated once per micro-batch.
type Stage struct {
	// Name is a short label used in rendering and error messages, e.g. "f2"
	// or "emb.b".
	Name string
	// Kind classifies the stage (forward, backward, aux).
	Kind Kind
	// Time is the execution time t_B of the block in integer ticks; must be
	// positive and at most MaxStageTime.
	Time int
	// Mem is the memory delta m_B applied to every device in Devices when
	// the block starts (Equation 1 item [2] counts memory from s_B onward).
	// Negative values release memory; |Mem| is at most MaxStageMem.
	Mem int
	// Devices lists the device(s) that execute the block exclusively for
	// its whole duration. Multi-device stages model tensor parallelism.
	Devices []DeviceID
}

// OnDevice reports whether the stage occupies device d.
func (s *Stage) OnDevice(d DeviceID) bool {
	for _, sd := range s.Devices {
		if sd == d {
			return true
		}
	}
	return false
}

// Placement is an operator placement strategy for one micro-batch: the K
// blocks of the model, their device assignments, costs, and the dependency
// DAG between them. It corresponds to the diagrams of Figure 1 in the paper
// (V-, X-, M-, K-, NN-shape, or any custom strategy).
type Placement struct {
	// Name labels the strategy, e.g. "v-shape" or "gpt-mshape".
	Name string
	// NumDevices is D, the number of devices the placement spans.
	NumDevices int
	// Stages holds the K block templates, indexed by stage id.
	Stages []Stage
	// Deps is the adjacency list of the dependency DAG: j ∈ Deps[i] means
	// stage j depends on stage i (B_i → B_j), i.e. j may start only after i
	// finishes within the same micro-batch.
	Deps [][]int
}

// K returns the number of blocks per micro-batch.
func (p *Placement) K() int { return len(p.Stages) }

// Succs returns the successor stage ids of stage i (stages depending on i).
// The returned slice is shared with the placement; callers must not mutate.
func (p *Placement) Succs(i int) []int {
	if i < 0 || i >= len(p.Deps) {
		return nil
	}
	return p.Deps[i]
}

// Preds returns the predecessor stage ids of stage i, computed on demand.
func (p *Placement) Preds(i int) []int {
	var preds []int
	for u, succs := range p.Deps {
		for _, v := range succs {
			if v == i {
				preds = append(preds, u)
			}
		}
	}
	return preds
}

// PredTable returns the full predecessor adjacency (inverse of Deps).
func (p *Placement) PredTable() [][]int {
	preds := make([][]int, len(p.Stages))
	for u, succs := range p.Deps {
		for _, v := range succs {
			preds[v] = append(preds[v], u)
		}
	}
	return preds
}

// DeviceStages returns the stage ids that occupy device d, in stage order.
func (p *Placement) DeviceStages(d DeviceID) []int {
	var ids []int
	for i := range p.Stages {
		if p.Stages[i].OnDevice(d) {
			ids = append(ids, i)
		}
	}
	return ids
}

// DeviceWork returns the total execution time of the stages occupying
// device d for one micro-batch. This is the per-device lower bound on the
// repetend period (Algorithm 1, GetLowerBound).
func (p *Placement) DeviceWork(d DeviceID) int {
	w := 0
	for i := range p.Stages {
		if p.Stages[i].OnDevice(d) {
			w += p.Stages[i].Time
		}
	}
	return w
}

// LowerBound returns max_d DeviceWork(d): no schedule can sustain a
// steady-state period below the busiest device's per-micro-batch work.
func (p *Placement) LowerBound() int {
	lb := 0
	for d := 0; d < p.NumDevices; d++ {
		if w := p.DeviceWork(DeviceID(d)); w > lb {
			lb = w
		}
	}
	return lb
}

// TotalWork returns the device-time product of one micro-batch: the sum
// over stages of Time × |Devices|. Used by bubble-rate computations.
func (p *Placement) TotalWork() int {
	w := 0
	for i := range p.Stages {
		w += p.Stages[i].Time * len(p.Stages[i].Devices)
	}
	return w
}

// TopoOrder returns a topological order of the stage DAG, or an error if
// the dependency graph contains a cycle. The order is deterministic (Kahn's
// algorithm with a smallest-id-first queue).
func (p *Placement) TopoOrder() ([]int, error) {
	k := p.K()
	indeg := make([]int, k)
	for _, succs := range p.Deps {
		for _, v := range succs {
			indeg[v]++
		}
	}
	ready := make([]int, 0, k) // every stage enters once, so this never grows
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, k)
	for len(ready) > 0 {
		sort.Ints(ready)
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range p.Deps[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != k {
		return nil, fmt.Errorf("placement %q: dependency graph has a cycle", p.Name)
	}
	return order, nil
}

// Validate checks structural well-formedness: positive times no larger than
// MaxStageTime, memory deltas within ±MaxStageMem, device ids in range,
// non-empty device sets, dependency indices in range, and acyclicity.
func (p *Placement) Validate() error {
	if p.NumDevices <= 0 {
		return fmt.Errorf("placement %q: NumDevices must be positive, got %d", p.Name, p.NumDevices)
	}
	if p.NumDevices > maxDevices {
		return fmt.Errorf("placement %q: NumDevices %d above the cap %d", p.Name, p.NumDevices, maxDevices)
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("placement %q: no stages", p.Name)
	}
	if len(p.Deps) != len(p.Stages) {
		return fmt.Errorf("placement %q: Deps length %d != Stages length %d", p.Name, len(p.Deps), len(p.Stages))
	}
	for i := range p.Stages {
		s := &p.Stages[i]
		if s.Time <= 0 {
			return fmt.Errorf("placement %q: stage %d (%s) has non-positive time %d", p.Name, i, s.Name, s.Time)
		}
		if s.Time > MaxStageTime {
			return fmt.Errorf("placement %q: stage %d (%s) has time %d above the cap %d", p.Name, i, s.Name, s.Time, MaxStageTime)
		}
		if s.Mem > MaxStageMem || s.Mem < -MaxStageMem {
			return fmt.Errorf("placement %q: stage %d (%s) has memory delta %d above the cap ±%d", p.Name, i, s.Name, s.Mem, MaxStageMem)
		}
		if len(s.Devices) == 0 {
			return fmt.Errorf("placement %q: stage %d (%s) has no devices", p.Name, i, s.Name)
		}
		seen := map[DeviceID]bool{}
		for _, d := range s.Devices {
			if d < 0 || int(d) >= p.NumDevices {
				return fmt.Errorf("placement %q: stage %d (%s) uses device %d outside [0,%d)", p.Name, i, s.Name, d, p.NumDevices)
			}
			if seen[d] {
				return fmt.Errorf("placement %q: stage %d (%s) lists device %d twice", p.Name, i, s.Name, d)
			}
			seen[d] = true
		}
	}
	for u, succs := range p.Deps {
		for _, v := range succs {
			if v < 0 || v >= len(p.Stages) {
				return fmt.Errorf("placement %q: dependency %d→%d out of range", p.Name, u, v)
			}
			if v == u {
				return fmt.Errorf("placement %q: stage %d depends on itself", p.Name, u)
			}
		}
	}
	if _, err := p.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the placement.
func (p *Placement) Clone() *Placement {
	q := &Placement{Name: p.Name, NumDevices: p.NumDevices}
	q.Stages = make([]Stage, len(p.Stages))
	copy(q.Stages, p.Stages)
	for i := range q.Stages {
		q.Stages[i].Devices = append([]DeviceID(nil), p.Stages[i].Devices...)
	}
	q.Deps = make([][]int, len(p.Deps))
	for i, succs := range p.Deps {
		q.Deps[i] = append([]int(nil), succs...)
	}
	return q
}

// String renders a one-line summary of the placement.
func (p *Placement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: D=%d K=%d", p.Name, p.NumDevices, p.K())
	return b.String()
}

// StageIDByName returns the id of the stage with the given name, or -1.
func (p *Placement) StageIDByName(name string) int {
	for i := range p.Stages {
		if p.Stages[i].Name == name {
			return i
		}
	}
	return -1
}
