package sched_test

import (
	"bytes"
	"fmt"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// FuzzDecodePlacement feeds DecodePlacement — the first thing a /v1/search
// body meets — arbitrary bytes. No input may panic. An accepted placement
// must be valid and must come back from EncodePlacement and a second decode
// with the same Fingerprint, the identity the serving cache keys on. The
// seeds are the catalog placements of the five shapes, training and
// inference, and the malformed placements the tests refuse.
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
		`{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[0]},{"name":"b","time":1,"devices":[0]}],"deps":[[1],[0]]}`,
		`{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[0]}],"deps":[[5]]}`,
		`{{{`,
		``,
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
