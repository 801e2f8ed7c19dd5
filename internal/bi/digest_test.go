package bi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// The equivalence tests compare the execution paths with each other, so a
// change to the partial aggregates they all share could alter every answer
// and still pass. These tests pin the answers themselves: the sha256
// of each query's full %+v rows on the 200-person fixture.

// rowDigest is the hex sha256 of the %+v rendering of a result.
func rowDigest(rows any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", rows)))
	return hex.EncodeToString(sum[:])
}

// wantDigests are the pinned row digests of BI1-BI8 on setup's fixture with
// the parameters digestRuns binds.
var wantDigests = [NumQueries]string{
	"3522dde0e5a07d138e6dee25f9f8c80c653c8e05d19006c9caa3743cf490b396",
	"91b2e2ec61ff3dd1b4e49193b970b60949763a96533dcfca0c7f25a533cd72bc",
	"197e7b9885dc938819428613075fb17f82247155836602273762e514d371d45d",
	"814e6d74d0930dfd65f498efe2077718d00d74d9df3906a391255e7aa5803d31",
	"374f620e2e4dce1b012228a1b45702befc722f320dc767c1c7c7b8b24010b9e7",
	"4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
	"dfe3a67cb0d8f70dc5cafe4d6ce29c74e2627ddb583b2d3f5397a5ed9f00ff08",
	"577a7e8736a3052a6fe22b4386672544057e3995b6ae47be761c0c0e0c4ca4ba",
}

// BI2's windows: two consecutive 120-day windows from digestStart.
const digestWin = int64(120 * 24 * 3600 * 1000)

var digestStart = datagen.SimStart + digestWin

// digestRuns is biRuns with the digests' parameters.
func digestRuns[R store.Reader](r R, par exec.Config, sc *workload.Scratch) [NumQueries]func() any {
	return biRuns(r, par, sc, digestStart, digestWin, datagen.SimEnd)
}

// TestBIRowDigests pins every query's full rows on the txn path and on the
// view at one, two and four workers.
func TestBIRowDigests(t *testing.T) {
	s, _ := setup(t)
	check := func(path string, runs [NumQueries]func() any) {
		t.Helper()
		for q, run := range runs {
			if got := rowDigest(run()); got != wantDigests[q] {
				t.Errorf("BI%d on %s path: digest %s, want %s", q+1, path, got, wantDigests[q])
			}
		}
	}
	s.View(func(tx *store.Txn) { check("txn", digestRuns(tx, serial, workload.NewScratch())) })
	v := s.CurrentView()
	check("view", digestRuns(v, serial, workload.NewScratch()))
	for _, w := range []int{1, 2, 4} {
		check(fmt.Sprintf("par%d", w), digestRuns(v, exec.Config{Workers: w, MorselSize: 64}, nil))
	}
}

// TestBI1YearBoundary scans messages whose creation dates alternate across
// a December→January boundary in scan order, so the month bucketer's cache
// misses on most rows and moves between years each time.
func TestBI1YearBoundary(t *testing.T) {
	newYear := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	msgs := []struct {
		kind          ids.Kind
		created, size int64
	}{
		// Scan order is ID order within a kind; the dates do not follow it.
		{ids.KindPost, newYear - 1, 10},
		{ids.KindPost, newYear, 50},
		{ids.KindPost, newYear - 1, 130},
		{ids.KindPost, newYear + 1, 30},
		{ids.KindComment, newYear, 200},
		{ids.KindComment, newYear - 86_400_000, 45},
		{ids.KindComment, newYear + 5, 60},
		{ids.KindComment, newYear - 1, 41},
	}
	st := store.New()
	tx := st.Begin()
	for i, m := range msgs {
		if err := tx.CreateNode(ids.Compose(m.kind, 1, uint32(i)), store.Props{
			store.NewProp(store.PropCreationDate, store.Int64(m.created)),
			store.NewProp(store.PropLength, store.Int64(m.size)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []BI1Row{
		{Year: 2010, Month: time.December, LengthClass: 0, MessageCount: 1, AvgLength: 10},
		{Year: 2010, Month: time.December, LengthClass: 2, MessageCount: 1, AvgLength: 130},
		{Year: 2010, Month: time.December, IsComment: true, LengthClass: 1, MessageCount: 2, AvgLength: 43},
		{Year: 2011, Month: time.January, LengthClass: 0, MessageCount: 1, AvgLength: 30},
		{Year: 2011, Month: time.January, LengthClass: 1, MessageCount: 1, AvgLength: 50},
		{Year: 2011, Month: time.January, IsComment: true, LengthClass: 1, MessageCount: 1, AvgLength: 60},
		{Year: 2011, Month: time.January, IsComment: true, LengthClass: 2, MessageCount: 1, AvgLength: 200},
	}
	st.View(func(tx *store.Txn) { biEq(t, "BI1", "txn", BI1(tx, serial), want) })
	v := st.CurrentView()
	for _, w := range []int{1, 2, 4} {
		biEq(t, "BI1", fmt.Sprintf("par%d", w), BI1(v, exec.Config{Workers: w, MorselSize: 1}), want)
	}
}
