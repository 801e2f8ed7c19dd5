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
// Each check constructs the canonical anomaly and reports whether the
// store prevents it. Under snapshot isolation every check here must pass
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
		lostUpdate(),
		phantomInsert(),
		writeSkew(),
		atomicity(),
	}
}

func freshCounter() (*Store, ids.ID) {
	st := New()
	id := ids.Compose(ids.KindPerson, 1, 0)
	tx := st.Begin()
	_ = tx.CreateNode(id, Props{NewProp(PropLength, Int64(0))})
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	return st, id
}

// dirtyWrite (G0): two concurrent transactions overwrite the same item;
// one must abort or the writes must serialise — interleaved versions from
// both must never both survive.
func dirtyWrite() anomalyOutcome {
	st, id := freshCounter()
	t1, t2 := st.Begin(), st.Begin()
	_ = t1.SetProp(id, PropLength, Int64(1))
	_ = t2.SetProp(id, PropLength, Int64(2))
	err1 := t1.Commit()
	err2 := t2.Commit()
	oneAborted := (err1 == nil) != (err2 == nil)
	return anomalyOutcome{
		name:      "G0 dirty write",
		prevented: oneAborted && errors.Is(errors.Join(err1, err2), ErrConflict),
		detail:    fmt.Sprintf("err1=%v err2=%v", err1, err2),
	}
}

// dirtyRead (G1a): a reader must never observe uncommitted (and later
// aborted) state.
func dirtyRead() anomalyOutcome {
	st, id := freshCounter()
	w := st.Begin()
	_ = w.SetProp(id, PropLength, Int64(99))
	var seen int64
	st.View(func(tx *Txn) {
		seen = tx.Prop(id, PropLength).Int()
	})
	w.Abort()
	var after int64
	st.View(func(tx *Txn) {
		after = tx.Prop(id, PropLength).Int()
	})
	return anomalyOutcome{
		name:      "G1a dirty read / aborted read",
		prevented: seen == 0 && after == 0,
		detail:    fmt.Sprintf("during=%d after-abort=%d", seen, after),
	}
}

// nonRepeatableRead (fuzzy read): within one transaction, reading the same
// item twice must give the same answer even if another transaction commits
// an update in between.
func nonRepeatableRead() anomalyOutcome {
	st, id := freshCounter()
	reader := st.Begin()
	first := reader.Prop(id, PropLength).Int()
	w := st.Begin()
	_ = w.SetProp(id, PropLength, Int64(7))
	if err := w.Commit(); err != nil {
		return anomalyOutcome{name: "fuzzy read", detail: err.Error()}
	}
	second := reader.Prop(id, PropLength).Int()
	return anomalyOutcome{
		name:      "fuzzy (non-repeatable) read",
		prevented: first == second,
		detail:    fmt.Sprintf("first=%d second=%d", first, second),
	}
}

// lostUpdate: two read-modify-write increments racing; the total must not
// regress (one conflicts and retries, or they serialise).
func lostUpdate() anomalyOutcome {
	st, id := freshCounter()
	increment := func() error {
		for attempt := 0; attempt < 32; attempt++ {
			tx := st.Begin()
			v := tx.Prop(id, PropLength).Int()
			_ = tx.SetProp(id, PropLength, Int64(v+1))
			err := tx.Commit()
			if err == nil {
				return nil
			}
			if !errors.Is(err, ErrConflict) {
				return err
			}
		}
		return errors.New("starved")
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = increment()
		}(i)
	}
	wg.Wait()
	var final int64
	st.View(func(tx *Txn) {
		final = tx.Prop(id, PropLength).Int()
	})
	return anomalyOutcome{
		name:      "lost update (8 racing increments)",
		prevented: final == 8 && errors.Join(errs...) == nil,
		detail:    fmt.Sprintf("final=%d errs=%v", final, errs),
	}
}

// phantomInsert: a snapshot scan repeated inside one transaction must not
// grow when another transaction inserts a matching row.
func phantomInsert() anomalyOutcome {
	st, _ := freshCounter()
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

// writeSkew: the classic SI anomaly — two transactions each read both
// items and write the *other* one. Snapshot isolation permits this
// (prevented=false is the expected result and is not an ACID failure for
// this workload; see the comment at the top of the file).
func writeSkew() anomalyOutcome {
	st := New()
	a := ids.Compose(ids.KindPerson, 1, 0)
	b := ids.Compose(ids.KindPerson, 1, 1)
	tx := st.Begin()
	_ = tx.CreateNode(a, Props{NewProp(PropLength, Int64(1))})
	_ = tx.CreateNode(b, Props{NewProp(PropLength, Int64(1))})
	if err := tx.Commit(); err != nil {
		return anomalyOutcome{name: "write skew", detail: err.Error()}
	}
	// Invariant attempt: at least one of a, b stays 1.
	t1, t2 := st.Begin(), st.Begin()
	if t1.Prop(a, PropLength).Int()+t1.Prop(b, PropLength).Int() >= 2 {
		_ = t1.SetProp(a, PropLength, Int64(0))
	}
	if t2.Prop(a, PropLength).Int()+t2.Prop(b, PropLength).Int() >= 2 {
		_ = t2.SetProp(b, PropLength, Int64(0))
	}
	err1, err2 := t1.Commit(), t2.Commit()
	var va, vb int64
	st.View(func(tx *Txn) {
		va = tx.Prop(a, PropLength).Int()
		vb = tx.Prop(b, PropLength).Int()
	})
	violated := va == 0 && vb == 0 && err1 == nil && err2 == nil
	return anomalyOutcome{
		name:      writeSkewName,
		prevented: !violated,
		detail:    fmt.Sprintf("a=%d b=%d err1=%v err2=%v", va, vb, err1, err2),
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

func TestLostUpdateRepeated(t *testing.T) {
	for i := 0; i < 5; i++ {
		if o := lostUpdate(); !o.prevented {
			t.Fatalf("lost update: %s", o.detail)
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
