// Package store implements the transactional property-graph engine used as
// the System Under Test for the SNB Interactive workload.
//
// The engine provides what §4 of the paper requires of a SUT: transactional
// updates running concurrently with queries under at-least-read-committed
// semantics. It implements snapshot isolation; the paper notes that "given
// the nature of the update workload, systems providing snapshot isolation
// behave identically to serializable". That update workload (U1–U8) only
// inserts, and so does the store: node properties are fixed when the node is
// created and edges are never deleted, so the one write-write conflict is a
// node ID created twice, which the second committer loses (ErrExists).
//
// Design, in the spirit of the two vendor systems of §5:
//   - property graph data model (nodes with typed properties, typed directed
//     edges carrying one timestamp-like attribute), like Sparksee; nodes and
//     edges are insert-only;
//   - adjacency lists per (node, edge type, direction) — the materialised
//     neighbourhoods §5 mentions for Sparksee — held per node as a sparse
//     row table: a node pays for the lists it has (graph.go).
//
// # Read paths
//
// The store exposes two read paths with identical visibility semantics:
//
//   - MVCC transactions (Begin/View + Txn): reads take shard read locks
//     and filter node records and adjacency lists by commit timestamp per
//     call, at the transaction's snapshot. This is the path every update
//     uses: a write transaction buffers its write set and reads its
//     snapshot only, its own writes becoming visible at commit.
//   - Snapshot views (CurrentView + SnapshotView): an immutable
//     CSR compaction of everything visible at one commit timestamp.
//     Reads are lock-free and allocation-free — adjacency calls return
//     subslices of a contiguous edge slab — which makes views the fast
//     path for the Interactive workload's read mix (multi-hop knows
//     expansions, profile and message lookups).
//
// The commit clock doubles as the view epoch: every committed write
// advances it, which invalidates the cached view, while older views stay
// valid for readers still holding them. Choose a Txn to write; choose a
// view for read-only query execution where latency matters. Both paths agree
// result-for-result at equal timestamps (asserted by the equivalence
// tests in view_test.go and delta_test.go).
//
// # Incremental view maintenance
//
// The view epoch advances in time proportional to the delta, neither the
// dataset nor the overlay already accumulated: every commit appends its
// write set, a CommitDelta (created nodes, inserted edges), to the commit
// log (commitlog.go), and the first CurrentView call after a commit
// applies the commits since the cached view onto the era's shared
// overlay — adjacency rows, appended ordinals with their property rows and
// kind lists are appended to in place beyond every published length, and
// each touched row gets a new commit-stamped header that older views read
// their own prefix of (delta.go). New nodes receive appended ordinals, so
// existing ordinals stay stable within an era (SnapshotView.Era) and a
// refreshed view shares the era's base. The full recompaction — sorted
// IDs, dense reassigned ordinals, a fresh era — runs inline on the reader
// that finds the era's overlay plus the backlog of commits since the cached
// view past a fixed fraction of the base (SetViewCompactThreshold overrides
// the trigger), and for the first view: the log drops the view's cursor at
// the trigger, so a view advances by a refresh or by that one rebuild.
// ViewStats counts refreshes, rebuilds, era bumps and cursor drops, and
// reports the overlay's size against the trigger.
package store

import (
	"fmt"

	"ldbcsnb/internal/intern"
)

// PropKey identifies a node property. Properties are stored as small
// (key, value) slices — SNB entities have at most ~12 properties.
type PropKey uint8

// Node property keys for the SNB schema.
const (
	PropFirstName PropKey = iota + 1
	PropLastName
	PropGender
	PropBirthday
	PropCreationDate
	PropLocationIP
	PropBrowserUsed
	PropContent
	PropLength
	PropLanguage
	PropImageFile
	PropTitle
	PropName
	PropSpeaks
	PropEmail
	PropCountry // denormalised country ID for persons and messages
	PropTopic   // denormalised main topic tag of a message
)

var propNames = map[PropKey]string{
	PropFirstName:    "firstName",
	PropLastName:     "lastName",
	PropGender:       "gender",
	PropBirthday:     "birthday",
	PropCreationDate: "creationDate",
	PropLocationIP:   "locationIP",
	PropBrowserUsed:  "browserUsed",
	PropContent:      "content",
	PropLength:       "length",
	PropLanguage:     "language",
	PropImageFile:    "imageFile",
	PropTitle:        "title",
	PropName:         "name",
	PropSpeaks:       "speaks",
	PropEmail:        "email",
	PropCountry:      "country",
	PropTopic:        "topic",
}

// String returns the schema name of the property.
func (k PropKey) String() string {
	if s, ok := propNames[k]; ok {
		return s
	}
	return fmt.Sprintf("prop(%d)", uint8(k))
}

type valueKind uint8

const (
	kindNone valueKind = iota
	kindInt
	kindString
)

// Value is a compact tagged union of the property value types the SNB
// schema needs (64-bit integers — including all timestamps — and strings).
// The zero Value is "absent".
//
// Values are fixed-width: strings are held as interned symbols
// (internal/intern), so every Value is one machine word plus a tag and two
// Values holding equal strings are structurally equal. The string bytes
// themselves live once in the process-wide intern arena; Str resolves the
// symbol with one wait-free lookup.
type Value struct {
	bits int64
	k    valueKind
}

// Int64 wraps an integer value.
func Int64(v int64) Value { return Value{bits: v, k: kindInt} }

// String wraps a string value, interning it. Repeated values (names,
// browsers, languages, tag strings) cost one arena entry no matter how many
// nodes carry them.
func String(v string) Value {
	return Value{bits: int64(intern.Intern(v)), k: kindString}
}

// symValue wraps an already-interned symbol (checkpoint restore, which
// re-interns its dictionary section in bulk).
func symValue(y intern.Sym) Value { return Value{bits: int64(y), k: kindString} }

// IsZero reports whether the value is absent.
func (v Value) IsZero() bool { return v.k == kindNone }

// IsInt reports whether the value holds an integer.
func (v Value) IsInt() bool { return v.k == kindInt }

// IsStr reports whether the value holds a string.
func (v Value) IsStr() bool { return v.k == kindString }

// Int returns the integer content (0 for non-integer values).
func (v Value) Int() int64 {
	if v.k != kindInt {
		return 0
	}
	return v.bits
}

// Str returns the string content ("" for non-string values).
func (v Value) Str() string {
	if v.k != kindString {
		return ""
	}
	return intern.Lookup(intern.Sym(v.bits))
}

// Sym returns the interned symbol of a string value (the zero Sym for
// non-string values, which is the empty string).
func (v Value) Sym() intern.Sym {
	if v.k != kindString {
		return 0
	}
	return intern.Sym(v.bits)
}

// GoString formats the value for diagnostics.
func (v Value) GoString() string {
	switch v.k {
	case kindInt:
		return fmt.Sprintf("Int64(%d)", v.bits)
	case kindString:
		return fmt.Sprintf("String(%q)", v.Str())
	default:
		return "Value{}"
	}
}

// Prop is one (key, value) property pair, 16 bytes: the Value's word and
// tag stored inline next to the key, so a property row packs without the
// padding a nested Value field would cost (24 bytes). Build one with
// NewProp and read its value with Val.
type Prop struct {
	bits int64
	k    valueKind
	Key  PropKey
}

// NewProp pairs a key with a value.
func NewProp(key PropKey, v Value) Prop { return Prop{bits: v.bits, k: v.k, Key: key} }

// Val returns the property's value.
func (p Prop) Val() Value { return Value{bits: p.bits, k: p.k} }

// Props is the property list of one node. A stored list is immutable and
// exactly sized (cap == len): the node record, every snapshot view that sees
// it and every commit delta share the one row, and a caller appending to a
// returned list gets a fresh array.
type Props []Prop

// Get returns the value for a key (zero Value if absent).
func (ps Props) Get(k PropKey) Value {
	for _, p := range ps {
		if p.Key == k {
			return p.Val()
		}
	}
	return Value{}
}

// clone returns an exactly sized copy of ps, nil when ps is empty.
func (ps Props) clone() Props {
	if len(ps) == 0 {
		return nil
	}
	return append(make(Props, 0, len(ps)), ps...)
}

// exact returns ps as a row to store: ps itself when it is already exactly
// sized, an exactly sized copy otherwise (nil when empty).
func (ps Props) exact() Props {
	if len(ps) > 0 && cap(ps) == len(ps) {
		return ps
	}
	return ps.clone()
}
