package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// The canonical encoding gives every placement a stable byte identity: two
// Placement values that describe the same strategy — same device count,
// same stages in the same order with the same costs and device sets, same
// dependency DAG — encode to the same bytes regardless of how they were
// built (shape constructors, JSON decoding, manual literals). The serving
// engine hashes this encoding to deduplicate and cache search requests, so
// the encoding must be deterministic and injective over the fields that
// influence a search result.

// AppendCanonical appends the canonical encoding of p to b and returns the
// extended slice. The encoding is length-prefixed throughout (uvarint), so
// no field boundary is ambiguous. Stage and placement names participate:
// they do not affect the search itself, but they do appear in rendered and
// serialized results, and serving a schedule under another placement's
// labels would be wrong.
func (p *Placement) AppendCanonical(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Name)))
	b = append(b, p.Name...)
	b = binary.AppendUvarint(b, uint64(p.NumDevices))
	b = binary.AppendUvarint(b, uint64(len(p.Stages)))
	for i := range p.Stages {
		s := &p.Stages[i]
		b = binary.AppendUvarint(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.AppendUvarint(b, uint64(s.Kind))
		b = binary.AppendVarint(b, int64(s.Time))
		b = binary.AppendVarint(b, int64(s.Mem))
		b = binary.AppendUvarint(b, uint64(len(s.Devices)))
		for _, d := range s.Devices {
			b = binary.AppendVarint(b, int64(d))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(p.Deps)))
	for _, succs := range p.Deps {
		b = binary.AppendUvarint(b, uint64(len(succs)))
		for _, v := range succs {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return b
}

// Fingerprint returns the SHA-256 of p's canonical encoding as a lowercase
// hex string — the stable identity the serving engine keys its cache by.
func Fingerprint(p *Placement) string {
	sum := sha256.Sum256(p.AppendCanonical(make([]byte, 0, 512)))
	return hex.EncodeToString(sum[:])
}

// AppendCanonical appends the canonical encoding of schedule s to b: the
// placement's canonical encoding followed by every item as
// (stage, micro, start) triples in (start, stage, micro) order. The item
// order is canonicalized here (without mutating s), so two schedules that
// assign the same start times encode identically regardless of how their
// item slices were assembled. Byte-equality of two encodings therefore
// means "the same schedule of the same placement" — the property the
// search determinism guarantee (and its tests) are stated in.
func (s *Schedule) AppendCanonical(b []byte) []byte {
	b = s.P.AppendCanonical(b)
	items := slices.Clone(s.Items)
	//tessel:totalorder (Start, Stage, Micro) is unique per item, so every tie is broken
	slices.SortFunc(items, compareItems)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendVarint(b, int64(it.Stage))
		b = binary.AppendVarint(b, int64(it.Micro))
		b = binary.AppendVarint(b, int64(it.Start))
	}
	return b
}

// FingerprintSchedule returns the SHA-256 of s's canonical encoding as a
// lowercase hex string.
func FingerprintSchedule(s *Schedule) string {
	sum := sha256.Sum256(s.AppendCanonical(nil))
	return hex.EncodeToString(sum[:])
}
