package main

// The instance catalog: every placement the benchmark sends, with the
// schedule quality it must reach. Instance names read shape + devices, then
// "i" for the inference variant and "mK" for options.memory = K, so "k6m8"
// is the 6-device K-shape searched under a per-device memory cap of 8.
//
// The golden period, N_R and lower bound were recorded by hand from the
// commit the benchmark was defined on. They are never recomputed from the
// code under test at run time: a response whose period is above the golden
// value is a failed operation, which is what keeps "faster by searching
// less" from passing as a gain. catalog_test.go cross-checks the table
// against Placement.LowerBound and the 1F1B closed form (an unbounded
// V-shape reaches zero steady-state bubble, period = fwd + bwd).

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tessel"
)

type instance struct {
	name      string
	build     func(tessel.ShapeConfig) (*tessel.Placement, error)
	devices   int
	inference bool
	memory    int // options.memory; 0 = unbounded
	period    int // golden repetend period (upper bound on every response)
	nr        int // golden repetend size N_R
	lb        int // device-work lower bound on the period
	// cold marks the nine expensive instances of the cold workloads, which
	// the layer table also times one by one.
	cold bool
}

var catalog = []instance{
	// cold_solver: searches dominated by the branch-and-bound solver.
	{name: "m4", build: tessel.NewMShape, devices: 4, period: 9, nr: 6, lb: 9, cold: true},
	{name: "k6", build: tessel.NewKShape, devices: 6, period: 6, nr: 4, lb: 6, cold: true},
	{name: "k6m8", build: tessel.NewKShape, devices: 6, memory: 8, period: 6, nr: 4, lb: 6, cold: true},
	{name: "x8m4", build: tessel.NewXShape, devices: 8, memory: 4, period: 14, nr: 2, lb: 6, cold: true},
	// cold_period: searches dominated by the repetend period engine.
	{name: "v6", build: tessel.NewVShape, devices: 6, period: 3, nr: 6, lb: 3, cold: true},
	{name: "v6m8", build: tessel.NewVShape, devices: 6, memory: 8, period: 3, nr: 6, lb: 3, cold: true},
	{name: "x8i", build: tessel.NewXShape, devices: 8, inference: true, period: 2, nr: 4, lb: 2, cold: true},
	{name: "m8i", build: tessel.NewMShape, devices: 8, inference: true, period: 3, nr: 8, lb: 3, cold: true},
	{name: "nn6i", build: tessel.NewNNShape, devices: 6, inference: true, period: 3, nr: 7, lb: 3, cold: true},
	// hot_extend: ten cheap placements that stay cached.
	{name: "v4", build: tessel.NewVShape, devices: 4, period: 3, nr: 4, lb: 3},
	{name: "x4", build: tessel.NewXShape, devices: 4, period: 6, nr: 3, lb: 6},
	{name: "k4", build: tessel.NewKShape, devices: 4, period: 6, nr: 3, lb: 6},
	{name: "nn4m8", build: tessel.NewNNShape, devices: 4, memory: 8, period: 17, nr: 2, lb: 9},
	{name: "v4i", build: tessel.NewVShape, devices: 4, inference: true, period: 1, nr: 1, lb: 1},
	{name: "x4i", build: tessel.NewXShape, devices: 4, inference: true, period: 2, nr: 2, lb: 2},
	{name: "m4i", build: tessel.NewMShape, devices: 4, inference: true, period: 3, nr: 4, lb: 3},
	{name: "k4i", build: tessel.NewKShape, devices: 4, inference: true, period: 2, nr: 2, lb: 2},
	{name: "nn4i", build: tessel.NewNNShape, devices: 4, inference: true, period: 3, nr: 5, lb: 3},
	// zipf_mix only: the remaining cheap bases.
	{name: "x4m8", build: tessel.NewXShape, devices: 4, memory: 8, period: 6, nr: 3, lb: 6},
	{name: "v6m4", build: tessel.NewVShape, devices: 6, memory: 4, period: 6, nr: 3, lb: 3},
	{name: "k6i", build: tessel.NewKShape, devices: 6, inference: true, period: 2, nr: 3, lb: 2},
}

// coldInstances names the catalog's cold instances, in catalog order.
var coldInstances = func() []string {
	var names []string
	for _, in := range catalog {
		if in.cold {
			names = append(names, in.name)
		}
	}
	return names
}()

func lookup(name string) *instance {
	for i := range catalog {
		if catalog[i].name == name {
			return &catalog[i]
		}
	}
	panic("benchmark: no catalog instance " + name)
}

// placement builds the instance's placement under the given placement name.
// The name is part of the placement fingerprint but not of the search, so a
// fresh name makes a request a cold miss that does identical work.
func (in *instance) placement(name string) (*tessel.Placement, error) {
	p, err := in.build(tessel.ShapeConfig{Devices: in.devices})
	if err != nil {
		return nil, fmt.Errorf("instance %s: %w", in.name, err)
	}
	if in.inference {
		p = tessel.InferenceVariant(p)
	}
	p.Name = name
	return p, nil
}

// placementJSON is the instance's placement in the compact wire encoding.
func (in *instance) placementJSON(name string) ([]byte, error) {
	p, err := in.placement(name)
	if err != nil {
		return nil, err
	}
	var buf, out bytes.Buffer
	if err := tessel.EncodePlacement(&buf, p); err != nil {
		return nil, fmt.Errorf("instance %s: %w", in.name, err)
	}
	if err := json.Compact(&out, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("instance %s: %w", in.name, err)
	}
	return out.Bytes(), nil
}

// requestBody is the /v1/search body for the instance at n micro-batches.
func (in *instance) requestBody(name string, n int) ([]byte, error) {
	pj, err := in.placementJSON(name)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"placement":%s,"options":{"n":%d,"memory":%d}}`, pj, n, in.memory)), nil
}

// validateMemory is the memory cap a response schedule must satisfy.
func (in *instance) validateMemory() int {
	if in.memory == 0 {
		return tessel.Unbounded
	}
	return in.memory
}
