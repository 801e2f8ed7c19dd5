package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ldbcsnb/internal/ids"
)

// Transaction-anomaly battery, in the spirit of the LDBC ACID test suite.
// §4 of the paper: "We require that all transactions have ACID guarantees,
// with serializability as a consistency requirement. Note that given the
// nature of the update workload, systems providing snapshot isolation
// behave identically to serializable."
//
// The store is insert-only, like that update workload: node properties are
// write-once and edges are never deleted. So each anomaly is built from
// inserts — a write-write conflict is one node ID created twice, an update a
// reader must not see is an appended edge — and each check reports whether
// the store prevents it. Under snapshot isolation every check here must pass
// except writeSkew, which SI famously permits — the paper's quoted remark
// is precisely why that is acceptable for this workload (the update stream
// contains no disjoint-write constraints).

// anomalyOutcome is the result of one anomaly check.
type anomalyOutcome struct {
	name      string
	prevented bool
	detail    string
}

const writeSkewName = "write skew (SI permits; expected under this engine)"

// runAnomalies executes the full battery against a fresh store per check.
func runAnomalies() []anomalyOutcome {
	return []anomalyOutcome{
		dirtyWrite(),
		dirtyRead(),
		nonRepeatableRead(),
		lostAppend(),
		phantomInsert(),
		writeSkew(),
		atomicity(),
	}
}

// freshRow returns a store holding one committed person, the owner of the
// adjacency row the checks below append to.
func freshRow() (*Store, ids.ID) {
	st := New()
	id := ids.Compose(ids.KindPerson, 1, 0)
	tx := st.Begin()
	_ = tx.CreateNode(id, nil)
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	return st, id
}

// dirtyWrite (G0): two concurrent transactions create the same node with
// different properties; exactly one must commit and the other must lose
// with ErrExists — the properties of both must never both survive.
func dirtyWrite() anomalyOutcome {
	st := New()
	id := ids.Compose(ids.KindPerson, 1, 0)
	t1, t2 := st.Begin(), st.Begin()
	_ = t1.CreateNode(id, Props{NewProp(PropLength, Int64(1))})
	_ = t2.CreateNode(id, Props{NewProp(PropLength, Int64(2))})
	err1 := t1.Commit()
	err2 := t2.Commit()
	var final int64
	st.View(func(tx *Txn) {
		final = tx.Prop(id, PropLength).Int()
	})
	return anomalyOutcome{
		name:      "G0 dirty write",
		prevented: err1 == nil && errors.Is(err2, ErrExists) && final == 1,
		detail:    fmt.Sprintf("err1=%v err2=%v final=%d", err1, err2, final),
	}
}

// dirtyRead (G1a): a reader must never observe uncommitted (and later
// aborted) state: neither the pending node nor the edge it adds to a
// committed one.
func dirtyRead() anomalyOutcome {
	st, id := freshRow()
	pending := ids.Compose(ids.KindPerson, 2, 0)
	w := st.Begin()
	_ = w.CreateNode(pending, Props{NewProp(PropLength, Int64(99))})
	_ = w.AddKnows(id, pending, 1)
	seen := func() string {
		var out string
		st.View(func(tx *Txn) {
			out = fmt.Sprintf("exists=%v length=%d degree=%d",
				tx.Exists(pending), tx.Prop(pending, PropLength).Int(), tx.OutDegree(id, EdgeKnows))
		})
		return out
	}
	during := seen()
	w.Abort()
	after := seen()
	const none = "exists=false length=0 degree=0"
	return anomalyOutcome{
		name:      "G1a dirty read / aborted read",
		prevented: during == none && after == none,
		detail:    fmt.Sprintf("during: %s; after abort: %s", during, after),
	}
}

// nonRepeatableRead (fuzzy read): within one transaction, reading the same
// row twice must give the same answer even if another transaction commits
// an append to it in between.
func nonRepeatableRead() anomalyOutcome {
	st, id := freshRow()
	peer := ids.Compose(ids.KindPost, 1, 0)
	reader := st.Begin()
	firstDeg, firstOut := reader.OutDegree(id, EdgeLikes), len(reader.Out(id, EdgeLikes))
	w := st.Begin()
	_ = w.AddEdge(id, EdgeLikes, peer, 7)
	if err := w.Commit(); err != nil {
		return anomalyOutcome{name: "fuzzy read", detail: err.Error()}
	}
	secondDeg, secondOut := reader.OutDegree(id, EdgeLikes), len(reader.Out(id, EdgeLikes))
	return anomalyOutcome{
		name:      "fuzzy (non-repeatable) read",
		prevented: firstDeg == secondDeg && firstOut == secondOut,
		detail:    fmt.Sprintf("degree %d then %d, out %d then %d", firstDeg, secondDeg, firstOut, secondOut),
	}
}

// lostAppend: eight transactions race to append one edge each to the same
// adjacency row; every append must survive (the insert-only form of a lost
// update: appends never conflict, so each one commits and none overwrites
// another).
func lostAppend() anomalyOutcome {
	st, id := freshRow()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := st.Begin()
			_ = tx.AddEdge(id, EdgeLikes, ids.Compose(ids.KindPost, 1, uint32(i)), int64(i))
			errs[i] = tx.Commit()
		}(i)
	}
	wg.Wait()
	var final int
	st.View(func(tx *Txn) {
		final = tx.OutDegree(id, EdgeLikes)
	})
	return anomalyOutcome{
		name:      "lost append (8 racing appends to one row)",
		prevented: final == 8 && errors.Join(errs...) == nil,
		detail:    fmt.Sprintf("final=%d errs=%v", final, errs),
	}
}

// phantomInsert: a snapshot scan repeated inside one transaction must not
// grow when another transaction inserts a matching row.
func phantomInsert() anomalyOutcome {
	st, _ := freshRow()
	reader := st.Begin()
	before := len(reader.NodesOfKind(ids.KindPerson))
	w := st.Begin()
	_ = w.CreateNode(ids.Compose(ids.KindPerson, 2, 0), nil)
	if err := w.Commit(); err != nil {
		return anomalyOutcome{name: "phantom", detail: err.Error()}
	}
	after := len(reader.NodesOfKind(ids.KindPerson))
	return anomalyOutcome{
		name:      "phantom insert under repeated scan",
		prevented: before == after,
		detail:    fmt.Sprintf("before=%d after=%d", before, after),
	}
}

// writeSkew: the classic SI anomaly — two transactions each read the item
// the other writes. Each checks that the other's node is absent and then
// creates its own; the invariant "at most one of a, b exists" holds for
// each alone but not for both. Snapshot isolation permits this
// (prevented=false is the expected result and is not an ACID failure for
// this workload; see the comment at the top of the file).
func writeSkew() anomalyOutcome {
	st := New()
	a := ids.Compose(ids.KindPerson, 1, 0)
	b := ids.Compose(ids.KindPerson, 1, 1)
	t1, t2 := st.Begin(), st.Begin()
	if !t1.Exists(b) {
		_ = t1.CreateNode(a, nil)
	}
	if !t2.Exists(a) {
		_ = t2.CreateNode(b, nil)
	}
	err1, err2 := t1.Commit(), t2.Commit()
	var va, vb bool
	st.View(func(tx *Txn) {
		va, vb = tx.Exists(a), tx.Exists(b)
	})
	violated := va && vb && err1 == nil && err2 == nil
	return anomalyOutcome{
		name:      writeSkewName,
		prevented: !violated,
		detail:    fmt.Sprintf("a=%v b=%v err1=%v err2=%v", va, vb, err1, err2),
	}
}

// atomicity: a transaction writing several entities must be all-or-nothing
// from any reader's point of view, including after an abort.
func atomicity() anomalyOutcome {
	st := New()
	p := ids.Compose(ids.KindPerson, 3, 0)
	m := ids.Compose(ids.KindPost, 3, 0)
	// Committed multi-write.
	tx := st.Begin()
	_ = tx.CreateNode(p, nil)
	_ = tx.CreateNode(m, nil)
	_ = tx.AddEdge(m, EdgeHasCreator, p, 1)
	if err := tx.Commit(); err != nil {
		return anomalyOutcome{name: "atomicity", detail: err.Error()}
	}
	var allOrNothing bool
	st.View(func(tx *Txn) {
		allOrNothing = tx.Exists(p) && tx.Exists(m) && tx.OutDegree(m, EdgeHasCreator) == 1
	})
	// Aborted multi-write leaves nothing.
	tx2 := st.Begin()
	p2 := ids.Compose(ids.KindPerson, 4, 0)
	_ = tx2.CreateNode(p2, nil)
	_ = tx2.AddEdge(p2, EdgeKnows, p, 2)
	tx2.Abort()
	st.View(func(tx *Txn) {
		if tx.Exists(p2) || tx.OutDegree(p, EdgeKnows) != 0 {
			allOrNothing = false
		}
	})
	return anomalyOutcome{
		name:      "atomicity (multi-entity commit and abort)",
		prevented: allOrNothing,
	}
}

// The store provides snapshot isolation: every anomaly must be prevented
// except write skew, which SI permits by design (the paper: "systems
// providing snapshot isolation behave identically to serializable" for
// this update workload).
func TestBattery(t *testing.T) {
	for _, o := range runAnomalies() {
		switch o.name {
		case writeSkewName:
			if o.prevented {
				t.Logf("note: write skew unexpectedly prevented (stricter than SI): %s", o.detail)
			}
		default:
			if !o.prevented {
				t.Errorf("%s NOT prevented: %s", o.name, o.detail)
			}
		}
	}
}

func TestDirtyWriteDeterministicLoser(t *testing.T) {
	// First committer wins every time.
	for i := 0; i < 20; i++ {
		if o := dirtyWrite(); !o.prevented {
			t.Fatalf("dirty write slipped through: %s", o.detail)
		}
	}
}

// TestLostAppendRepeated is the battery's one concurrent-commit check,
// repeated: racing appends to a single adjacency row. make race runs it
// under the detector twenty times more.
func TestLostAppendRepeated(t *testing.T) {
	for i := 0; i < 5; i++ {
		if o := lostAppend(); !o.prevented {
			t.Fatalf("lost append: %s", o.detail)
		}
	}
}

func TestWriteSkewIsObservable(t *testing.T) {
	// Documented engine behaviour: SI admits write skew. If this starts
	// failing the engine got stricter — update the docs, not the engine.
	for i := 0; i < 10; i++ {
		if o := writeSkew(); !o.prevented {
			return
		}
	}
	t.Log("write skew never materialised in 10 attempts; engine may be effectively serializable")
}
