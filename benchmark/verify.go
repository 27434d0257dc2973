package main

// Full verification of the responses held back during a run, done after the
// window closes: the schedule the server sent is decoded and checked against
// the paper's constraints by code that had no part in producing it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"tessel"
)

type fullResponse struct {
	responseHeader
	Schedule json.RawMessage `json:"schedule"`
}

// verifyBody checks one response body in full and returns the fingerprint
// of its schedule with the placement name normalised, so that responses for
// differently named copies of one instance compare equal.
func verifyBody(k *kept) (string, error) {
	var resp fullResponse
	if err := json.Unmarshal(k.body.Bytes(), &resp); err != nil {
		return "", fmt.Errorf("decode response: %w", err)
	}
	s, err := tessel.DecodeSchedule(bytes.NewReader(resp.Schedule))
	if err != nil {
		return "", err
	}
	inst, n := k.req.inst, k.req.n
	if err := s.Validate(tessel.ValidateOptions{Memory: inst.validateMemory()}); err != nil {
		return "", fmt.Errorf("invalid schedule: %w", err)
	}
	// Validate rejects a block scheduled twice, so N·K items over
	// micro-batches 0..N-1 means exactly N complete micro-batches.
	if want := n * s.P.K(); len(s.Items) != want {
		return "", fmt.Errorf("schedule has %d blocks, want n·K = %d", len(s.Items), want)
	}
	for _, it := range s.Items {
		if it.Micro < 0 || it.Micro >= n {
			return "", fmt.Errorf("block %v outside micro-batches 0..%d", it.Block, n-1)
		}
	}
	if got := s.Makespan(); got != resp.Makespan {
		return "", fmt.Errorf("schedule makespan %d, response declares %d", got, resp.Makespan)
	}
	if lb := s.P.LowerBound(); lb != inst.lb {
		return "", fmt.Errorf("placement lower bound %d, catalog says %d", lb, inst.lb)
	}
	s.P.Name = inst.name
	return tessel.FingerprintSchedule(s), nil
}

// verifyKept verifies the first and the latest body of every key across all
// clients and requires one schedule per key. It returns the number of
// bodies checked and one message per failure.
func verifyKept(clients []*client) (checked int, failures []string) {
	prints := map[verifyKey]string{}
	check := func(key verifyKey, k *kept) {
		checked++
		fp, err := verifyBody(k)
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("%s (%s n=%d): %v", k.req.id, key.inst, key.n, err))
		case prints[key] == "":
			prints[key] = fp
		case prints[key] != fp:
			failures = append(failures, fmt.Sprintf("%s (%s n=%d): schedule differs from an earlier response for the same instance and n", k.req.id, key.inst, key.n))
		}
	}
	for _, c := range clients {
		for _, m := range []map[verifyKey]*kept{c.first, c.last} {
			keys := make([]verifyKey, 0, len(m))
			for key := range m {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].inst != keys[j].inst {
					return keys[i].inst < keys[j].inst
				}
				return keys[i].n < keys[j].n
			})
			for _, key := range keys {
				check(key, m[key])
			}
		}
	}
	return checked, failures
}
