package sched_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// FuzzDecodePlacement feeds DecodePlacement — the first thing a /v1/search
// body meets — arbitrary bytes. No input may panic. An accepted placement
// must be valid and must come back from EncodePlacement and a second decode
// with the same Fingerprint, the identity the serving cache keys on. The
// seeds are the catalog placements of the five shapes, training and
// inference, and the malformed placements the tests refuse — a stage time
// above MaxStageTime and ±2^62 memory deltas whose peak wraps among them.
func FuzzDecodePlacement(f *testing.F) {
	for _, build := range []func(placement.Config) (*sched.Placement, error){
		placement.VShape, placement.XShape, placement.MShape, placement.NNShape, placement.KShape,
	} {
		for _, devices := range []int{4, 6, 8} {
			p, err := build(placement.Config{Devices: devices})
			if err != nil {
				f.Fatal(err)
			}
			for _, q := range []*sched.Placement{p, placement.Inference(p)} {
				var buf bytes.Buffer
				if err := sched.EncodePlacement(&buf, q); err != nil {
					f.Fatal(err)
				}
				f.Add(buf.Bytes())
			}
		}
	}
	for _, body := range []string{
		`{"version":1,"name":"x","num_devices":2,"stages":[{"name":"a","kind":"sideways","time":1,"devices":[0]}],"deps":[[]]}`,
		`{"version":99,"name":"x","num_devices":2,"stages":[],"deps":[]}`,
		`{"version":1,"name":"x","num_devices":2,"stages":[{"name":"a","kind":"forward","time":0,"devices":[0]}],"deps":[[]]}`,
		`{"version":1,"name":"x","num_devices":2,"stages":[{"name":"a","kind":"forward","time":1,"devices":[7]}],"deps":[[]]}`,
		`{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[]}],"deps":[[]]}`,
		fmt.Sprintf(`{"name":"x","num_devices":1,"stages":[{"name":"a","time":%d,"devices":[0]}],"deps":[[]]}`, sched.MaxStageTime+1),
		`{"name":"chain","num_devices":1,"stages":[{"name":"f0","time":1,"mem":4611686018427387904,"devices":[0]},{"name":"f1","time":1,"mem":4611686018427387904,"devices":[0]},{"name":"b1","kind":"backward","time":1,"mem":-4611686018427387904,"devices":[0]},{"name":"b0","kind":"backward","time":1,"mem":-4611686018427387904,"devices":[0]}],"deps":[[1],[2],[3],[]]}`,
		`{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[0]},{"name":"b","time":1,"devices":[0]}],"deps":[[1],[0]]}`,
		`{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[0]}],"deps":[[5]]}`,
		`{{{`,
		``,
		// One stage above maxStages: 257 one-device stages.
		`{"name":"x","num_devices":1,"stages":[` + strings.Repeat(`{"time":1,"devices":[0]},`, 256) + `{"time":1,"devices":[0]}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := sched.DecodePlacement(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted placement is invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := sched.EncodePlacement(&buf, p); err != nil {
			t.Fatalf("accepted placement does not encode: %v", err)
		}
		q, err := sched.DecodePlacement(&buf)
		if err != nil {
			t.Fatalf("encoded placement does not decode: %v\n%s", err, buf.Bytes())
		}
		if got, want := sched.Fingerprint(q), sched.Fingerprint(p); got != want {
			t.Fatalf("fingerprint %s after a round trip, %s before", got, want)
		}
	})
}

// FuzzDecodeSchedule feeds DecodeSchedule — the reader of schedule files and
// of every /v1/search response the benchmark verifies — arbitrary bytes. No
// input may panic, and neither may Validate on an accepted schedule, whose
// verdict must be ReferenceValidate's at both memories. Every accepted item
// must reference a stage of the placement, have no negative coordinate and
// end by math.MaxInt, and the schedule must come back from EncodeSchedule and
// a second decode with the same FingerprintSchedule. The seeds are the
// M-shape golden schedule, a truncated copy of it, and small schedules with a
// bad stage, a negative micro-batch or start, a block scheduled twice, a
// wrong version, 10^12 devices, for which Validate would exhaust memory, and
// a block ending past math.MaxInt before its successor at t = 0.
func FuzzDecodeSchedule(f *testing.F) {
	golden, err := os.ReadFile("testdata/mshape4_n12_schedule.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	const p = `{"version":1,"name":"x","num_devices":2,"stages":[{"name":"a","kind":"forward","time":1,"mem":1,"devices":[0]},{"name":"b","kind":"backward","time":2,"mem":-1,"devices":[0,1]}],"deps":[[1],[]]}`
	for _, body := range []string{
		`{"version":1,"placement":` + p + `,"items":[{"stage":0,"micro":0,"start":0},{"stage":1,"micro":0,"start":1}]}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":2,"micro":0,"start":0}]}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":-1,"micro":0,"start":0}]}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":0,"micro":-1,"start":0}]}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":0,"micro":0,"start":-1}]}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":0,"micro":0,"start":0},{"stage":0,"micro":0,"start":5}]}`,
		`{"version":2,"placement":` + p + `,"items":[]}`,
		`{"version":1,"placement":` + strings.Replace(p, `"num_devices":2`, `"num_devices":1000000000000`, 1) + `,"items":[]}`,
		`{"placement":` + p + `,"items":null}`,
		`{"version":1,"placement":` + p + `,"items":[{"stage":0,"micro":0,"start":9223372036854775807},{"stage":1,"micro":0,"start":0}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := sched.DecodeSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, mem := range []int{sched.Unbounded, 1} {
			got, want := s.Validate(sched.ValidateOptions{Memory: mem}), sched.ReferenceValidate(s, sched.ValidateOptions{Memory: mem})
			if (got == nil) != (want == nil) {
				t.Fatalf("memory %d: Validate says %v, the reference %v", mem, got, want)
			}
		}
		for _, it := range s.Items {
			if it.Stage < 0 || it.Stage >= s.P.K() || it.Micro < 0 || it.Start < 0 || it.Start+s.P.Stages[it.Stage].Time < it.Start {
				t.Fatalf("accepted item %+v of a placement with %d stages", it, s.P.K())
			}
		}
		var buf bytes.Buffer
		if err := sched.EncodeSchedule(&buf, s); err != nil {
			t.Fatalf("accepted schedule does not encode: %v", err)
		}
		q, err := sched.DecodeSchedule(&buf)
		if err != nil {
			t.Fatalf("encoded schedule does not decode: %v\n%s", err, buf.Bytes())
		}
		if got, want := sched.FingerprintSchedule(q), sched.FingerprintSchedule(s); got != want {
			t.Fatalf("schedule fingerprint %s after a round trip, %s before", got, want)
		}
	})
}
