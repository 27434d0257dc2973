package sched_test

import (
	"bytes"
	"os"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// TestEncodeGoldenBytes pins the interchange bytes: the testdata files were
// written by EncodePlacement and EncodeSchedule at the commit before the
// codec was refactored (m-shape, 4 devices, searched at n = 12), and the
// encoders must keep producing exactly them.
func TestEncodeGoldenBytes(t *testing.T) {
	p, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := os.ReadFile("testdata/mshape4_placement.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sched.EncodePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantP) {
		t.Fatalf("EncodePlacement bytes drifted from the golden file:\n%s", buf.Bytes())
	}

	wantS, err := os.ReadFile("testdata/mshape4_n12_schedule.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DecodeSchedule(bytes.NewReader(wantS))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Len(), 12*p.K(); got != want {
		t.Fatalf("golden schedule decoded to %d items, want %d", got, want)
	}
	buf.Reset()
	if err := sched.EncodeSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantS) {
		t.Fatal("EncodeSchedule bytes drifted from the golden file")
	}
}
