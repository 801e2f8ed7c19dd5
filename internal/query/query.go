// Package query is the declarative pattern-query layer compiled onto the
// store.Reader API: a small conjunctive pattern language (edge patterns
// with variables, kind constraints, comparison filters, ordering, limits
// and count/sum aggregates) parsed from a string form, planned by a greedy
// statistics-free planner into a streaming iterator plan over
// OutOf/InOf/PropOf/ScanKind, and executed on either Reader
// instantiation (*store.Txn or *store.SnapshotView).
//
// # Language
//
// A query is one string of up to five clauses (grammar in docs/QUERY.md):
//
//	match $person -knows-> ?f, ?m -hasCreator-> ?f @ ?d
//	where ?d <= $maxDate
//	return ?m, ?f, ?d
//	order by ?d desc, ?m asc
//	limit 20
//
// Variables are ?name, parameters $name (bound at execution time), edge
// patterns `a -type-> b [@ ?stamp]` with the schema's edge-type names,
// bounded variable-length patterns `a -knows*1..3-> b [@ ?dist]` (?dist
// binds the minimal hop count), kind constraints `?x : Person`, and
// property access `?x.firstName` in filters and return items.
//
// # Semantics
//
// The MATCH..WHERE part denotes the set of distinct assignments of all
// declared variables satisfying every pattern and filter (set semantics —
// duplicate adjacency entries never duplicate rows). RETURN projects each
// assignment to one row; aggregates (count, sum) group by the
// non-aggregate return items. Results are always in a canonical total
// order: the ORDER BY keys first, then every projected column ascending —
// so results are deterministic regardless of read path or plan shape,
// which is what the differential test harness pins.
//
// # Pipeline
//
// Parse (parse.go) -> canonical print (print.go, round-trip pinned by the
// fuzz corpus) -> Plan (plan.go, greedy statistics-free join ordering,
// deterministic) -> Run (exec.go, streaming nested-loop execution with
// per-prefix deduplication and a bounded top-k sink). The named-query
// registry (registry.go) expresses Q1, Q2 and Q8 declaratively and follows
// workload.Complex's conventions (Name, Bind, RunTxn/RunView/RunViewCtx).
package query

import (
	"strings"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
)

// Hard limits of the language. They bound parser and planner work so that
// arbitrary (fuzzed or remote) query strings cannot build unbounded state;
// the wire protocol's frame cap independently bounds the text length.
const (
	MaxQueryLen    = 4000 // bytes of query text
	MaxVars        = 16   // distinct variables
	MaxAtoms       = 16   // patterns in the match clause
	MaxFilters     = 16   // comparisons in the where clause
	MaxReturnItems = 16   // items in the return clause
	MaxHops        = 8    // upper bound of a variable-length pattern
	MaxLimit       = 1 << 20
)

// VarKind distinguishes node variables (bound to entity IDs by pattern
// endpoints) from scalar variables (bound to edge stamps or BFS distances).
type VarKind uint8

const (
	// VarNode is an entity-ID variable.
	VarNode VarKind = iota
	// VarScalar is a stamp or distance variable.
	VarScalar
)

// Var is one declared variable.
type Var struct {
	Name string
	Kind VarKind
}

// TermKind discriminates pattern endpoints.
type TermKind uint8

const (
	// TermVar is a ?variable endpoint.
	TermVar TermKind = iota
	// TermParam is a $parameter endpoint (a node ID at bind time).
	TermParam
	// TermInt is an integer-literal endpoint (a raw node ID).
	TermInt
)

// Term is one pattern endpoint: a variable, a parameter or an ID literal.
type Term struct {
	Kind  TermKind
	Var   int // variable index for TermVar
	Param int // parameter index for TermParam
	Int   int64
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// AtomKind discriminates match-clause patterns.
type AtomKind uint8

const (
	// AtomEdge is an edge pattern (plain or variable-length).
	AtomEdge AtomKind = iota
	// AtomKindConstraint is a `?x : Kind` constraint.
	AtomKindConstraint
)

// Atom is one match-clause pattern.
type Atom struct {
	Kind AtomKind

	// Edge pattern fields.
	Src, Dst Term
	Edge     store.EdgeType
	Stamp    int // scalar variable bound to the edge stamp / BFS distance; -1 if none
	MinHops  int // 1 for a plain edge pattern
	MaxHops  int // 1 for a plain edge pattern

	// Kind constraint fields.
	Var      int
	NodeKind ids.Kind
}

// VarLen reports whether the atom is a variable-length edge pattern.
func (a *Atom) VarLen() bool { return a.Kind == AtomEdge && (a.MinHops != 1 || a.MaxHops != 1) }

// ExprKind discriminates scalar expressions.
type ExprKind uint8

const (
	// ExprVar evaluates to a variable's binding (IDs as integers).
	ExprVar ExprKind = iota
	// ExprProp evaluates to a node variable's property value.
	ExprProp
	// ExprParam evaluates to a parameter's bound value.
	ExprParam
	// ExprInt is an integer literal.
	ExprInt
	// ExprStr is a string literal.
	ExprStr
)

// Expr is one scalar expression in a filter, return item or order key.
type Expr struct {
	Kind  ExprKind
	Var   int
	Prop  store.PropKey
	Param int
	Int   int64
	Str   string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators, in grammar order.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{CmpEq: "=", CmpNe: "!=", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="}

// String returns the operator's source form.
func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return "?"
}

// Filter is one where-clause comparison.
type Filter struct {
	Lhs Expr
	Op  CmpOp
	Rhs Expr
}

// AggKind discriminates return-item aggregates.
type AggKind uint8

const (
	// AggNone marks a plain (group-by) return item.
	AggNone AggKind = iota
	// AggCount counts rows; with Star set it is count(*).
	AggCount
	// AggSum sums the integer values of its expression.
	AggSum
)

// ReturnItem is one projected column: a plain expression (a group-by key
// when aggregates are present) or an aggregate.
type ReturnItem struct {
	Agg  AggKind
	Star bool // count(*)
	Expr Expr // unused when Star
}

// OrderKey is one order-by key; it must structurally match a return item.
type OrderKey struct {
	Item ReturnItem
	Desc bool
	Col  int // resolved return-item index
}

// Query is the parsed AST of one pattern query.
type Query struct {
	Vars    []Var    // declared variables, in first-occurrence order
	Params  []string // referenced parameters, in first-occurrence order
	Atoms   []Atom
	Filters []Filter
	Returns []ReturnItem
	Orders  []OrderKey
	Limit   int // 0 = no limit
}

// HasAggregates reports whether any return item aggregates.
func (q *Query) HasAggregates() bool {
	for i := range q.Returns {
		if q.Returns[i].Agg != AggNone {
			return true
		}
	}
	return false
}

// Schema-name lookup tables, built once from the store's String() names so
// the language and the schema can never drift. The loops probe the small
// fixed numeric ranges of the enum types; unknown values print with a
// "edge("/"prop("-style prefix (or "Unknown" for kinds) and are skipped.
var (
	edgeByName map[string]store.EdgeType
	propByName map[string]store.PropKey
	kindByName map[string]ids.Kind
)

func init() {
	edgeByName = make(map[string]store.EdgeType)
	propByName = make(map[string]store.PropKey)
	kindByName = make(map[string]ids.Kind)
	for t := 1; t < 64; t++ {
		name := store.EdgeType(t).String()
		if !strings.HasPrefix(name, "edge(") {
			edgeByName[name] = store.EdgeType(t)
		}
	}
	for k := 1; k < 64; k++ {
		name := store.PropKey(k).String()
		if !strings.HasPrefix(name, "prop(") {
			propByName[name] = store.PropKey(k)
		}
	}
	for k := 1; k < 32; k++ {
		name := ids.Kind(k).String()
		if name != "Unknown" {
			kindByName[name] = ids.Kind(k)
		}
	}
}
