package scorecache

import (
	"strconv"
	"strings"

	"certa/internal/record"
)

// PerturbKeyer assembles the canonical cache Key of a mask-perturbed
// pair without materializing the perturbed record. CERTA's lattice
// oracle asks thousands of subset questions per explanation, and before
// this existed every question paid for a full record clone plus a map of
// copied values just to discover the answer was already memoized.
//
// The keyer precomputes, once per (pair, side, support record):
//
//   - the serialized bytes before and after the perturbed record's value
//     fragments (the other side's whole record and the schema header),
//   - two ";len:value" fragments per attribute — the free record's value
//     and the support record's value.
//
// Key(mask) then concatenates head + the mask-selected fragment per
// attribute + tail, byte-for-byte identical to
// Key(perturb(pair, side, support, attrs, mask)) — the property test
// TestPerturbKeyerMatchesMaterializedKey gates this. The mask is a plain
// uint32 in lattice bit order (bit i selects the support's value for
// Schema.Attrs[i]), kept untyped here so the cache layer stays
// independent of the lattice package.
type PerturbKeyer struct {
	head  string
	tail  string
	frags [][2]string // per attr: [0] free value fragment, [1] support value fragment
}

// NewPerturbKeyer prepares mask→key assembly for perturbations of the
// given side's record with values copied from support w. The free record
// on that side must be non-nil (a nil fixed record is tolerated, exactly
// like Key).
func NewPerturbKeyer(p record.Pair, side record.Side, w *record.Record) *PerturbKeyer {
	free := p.Record(side)
	head, tail := keyFrame(p, side)
	var b strings.Builder
	b.WriteString(head)
	writeHeader(&b, free.Schema.Name)

	frags := make([][2]string, len(free.Schema.Attrs))
	for i, a := range free.Schema.Attrs {
		frags[i][0] = valueFrag(free.Values[i])
		frags[i][1] = valueFrag(w.Value(a))
	}
	return &PerturbKeyer{head: b.String(), tail: tail, frags: frags}
}

// Key assembles the canonical key for the subset mask: bit i selects the
// support record's value for attribute i, a zero bit keeps the free
// record's own value.
func (k *PerturbKeyer) Key(mask uint32) string {
	n := len(k.head) + len(k.tail)
	for i := range k.frags {
		n += len(k.frags[i][(mask>>uint(i))&1])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(k.head)
	for i := range k.frags {
		b.WriteString(k.frags[i][(mask>>uint(i))&1])
	}
	b.WriteString(k.tail)
	return b.String()
}

// CandidateKeyer assembles the canonical keys of support-search
// candidates — the pair with one side's record replaced by a source
// record w, possibly with one of w's values substituted — without
// building the candidate record or pair. The fixed side's bytes are
// serialized once per keyer and each source record once per Reset, so
// a candidate key costs one allocation:
//
//	Key()         == Key(p.WithRecord(side, w))
//	KeyWith(i, v) == Key(p.WithRecord(side, w.WithValue(w.Schema.Attrs[i], v)))
//
// TestPerturbKeyerMatchesMaterializedKey gates both identities.
type CandidateKeyer struct {
	head, tail string
	key        string // Key() of the current record
	frags      []int  // offset in key of each value fragment, then of the tail
}

// NewCandidateKeyer prepares key assembly for candidates on the given
// side of p; p's record on the other side is the fixed one (nil is
// tolerated, exactly like Key).
func NewCandidateKeyer(p record.Pair, side record.Side) *CandidateKeyer {
	head, tail := keyFrame(p, side)
	return &CandidateKeyer{head: head, tail: tail}
}

// Reset makes w, a non-nil record, the current candidate source.
func (k *CandidateKeyer) Reset(w *record.Record) {
	var b strings.Builder
	b.WriteString(k.head)
	writeHeader(&b, w.Schema.Name)
	k.frags = k.frags[:0]
	for _, v := range w.Values {
		k.frags = append(k.frags, b.Len())
		writeValue(&b, v)
	}
	k.frags = append(k.frags, b.Len())
	b.WriteString(k.tail)
	k.key = b.String()
}

// Key returns the key of the current record itself.
func (k *CandidateKeyer) Key() string { return k.key }

// KeyWith returns the key of the current record with value index i
// replaced by v.
func (k *CandidateKeyer) KeyWith(i int, v string) string {
	var num [20]byte
	n := strconv.AppendInt(num[:0], int64(len(v)), 10)
	pre, post := k.key[:k.frags[i]], k.key[k.frags[i+1]:]
	var b strings.Builder
	b.Grow(len(pre) + 2 + len(n) + len(v) + len(post))
	b.WriteString(pre)
	b.WriteByte(';')
	b.Write(n)
	b.WriteByte(':')
	b.WriteString(v)
	b.WriteString(post)
	return b.String()
}

// keyFrame returns the serialized bytes around side's record in Key(p):
// the left record and '|' before a right-side record, '|' and the right
// record after a left-side one.
func keyFrame(p record.Pair, side record.Side) (head, tail string) {
	var b strings.Builder
	if side == record.Right {
		writeRecord(&b, p.Left)
		b.WriteByte('|')
		return b.String(), ""
	}
	b.WriteByte('|')
	writeRecord(&b, p.Right)
	return "", b.String()
}

// valueFrag returns one value's ";len:value" key fragment.
func valueFrag(v string) string {
	var b strings.Builder
	writeValue(&b, v)
	return b.String()
}
