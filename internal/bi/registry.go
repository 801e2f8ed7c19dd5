package bi

import (
	"strconv"

	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The BI-query registry, mirroring workload.Complex: one descriptor per
// query carrying its name, parameter binding against the driver's curated
// pools and the three entry points. The driver's BI analyst lane and the
// benchmarks execute purely through this table.
//
// Each query has one generic runner taking the fan-out; the descriptor's
// three entry points are its instantiations (txn and view with one worker,
// view with the caller's fan-out), so every caller executes the same
// monomorphized kernels.

// NumQueries is the number of BI query templates.
const NumQueries = 8

// serial is the one-worker fan-out: every morsel runs inline on the
// caller's goroutine, as the txn path requires.
var serial = exec.Config{Workers: 1}

// Params is one bound BI execution's parameter set; each query reads the
// fields its Bind populated.
type Params struct {
	WindowStart   int64 // BI2: start of window A (window B follows)
	WindowMillis  int64 // BI2: window length
	Limit         int   // BI2, BI4, BI7
	CreatedBefore int64 // BI6
	MaxMessages   int   // BI6
}

// Result summarises one BI execution for the driver (the full row sets
// stay inside the query; the lane only tracks latency and output size).
type Result struct {
	Rows int
}

// Spec describes one BI query template.
type Spec struct {
	// Num is the 1-based query number; Name its display label.
	Num  int
	Name string
	// Bind draws one parameter binding from the driver's curated pools.
	Bind func(pools *workload.ParamPools, rnd *xrand.Rand) Params
	// RunTxn and RunView run the query on one worker, the caller's
	// goroutine, walking BI7's reach with sc.
	RunTxn  func(tx *store.Txn, sc *workload.Scratch, p Params) Result
	RunView func(v *store.SnapshotView, sc *workload.Scratch, p Params) Result
	// RunPar runs the same body on the view with par's fan-out and morsel
	// size; BI7's reach workers draw their scratches from a pool.
	RunPar func(v *store.SnapshotView, par exec.Config, p Params) Result
}

// runner is one query's generic runner instantiated for one reader type.
type runner[R store.Reader] func(r R, par exec.Config, sc *workload.Scratch, p Params) Result

// spec builds query num's descriptor from the two instantiations of its
// runner.
func spec(num int, bind func(*workload.ParamPools, *xrand.Rand) Params, txn runner[*store.Txn], view runner[*store.SnapshotView]) Spec {
	return Spec{
		Num: num, Name: "BI" + strconv.Itoa(num), Bind: bind,
		RunTxn: func(tx *store.Txn, sc *workload.Scratch, p Params) Result { return txn(tx, serial, sc, p) },
		RunView: func(v *store.SnapshotView, sc *workload.Scratch, p Params) Result {
			return view(v, serial, sc, p)
		},
		RunPar: func(v *store.SnapshotView, par exec.Config, p Params) Result { return view(v, par, nil, p) },
	}
}

// bindFixed returns a Bind for queries whose parameters don't draw from
// the pools.
func bindFixed(p Params) func(*workload.ParamPools, *xrand.Rand) Params {
	return func(*workload.ParamPools, *xrand.Rand) Params { return p }
}

// The per-query generic runners: bound parameters in, row counts out.

func runBI1[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI1(r, par))}
}

func runBI2[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI2(r, par, p.WindowStart, p.WindowMillis, p.Limit))}
}

func runBI3[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI3(r, par))}
}

func runBI4[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI4(r, par, p.Limit))}
}

func runBI5[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI5(r, par))}
}

func runBI6[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI6(r, par, p.CreatedBefore, p.MaxMessages))}
}

func runBI7[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI7(r, par, sc, p.Limit))}
}

func runBI8[R store.Reader](r R, par exec.Config, sc *workload.Scratch, p Params) Result {
	return Result{Rows: len(BI8(r, par))}
}

// Registry[q-1] is the descriptor of BI query q.
var Registry = [NumQueries]Spec{
	spec(1, bindFixed(Params{}), runBI1[*store.Txn], runBI1[*store.SnapshotView]),
	spec(2, func(pools *workload.ParamPools, rnd *xrand.Rand) Params {
		// Two consecutive windows ending at the simulation end, so both
		// sides of the comparison hold data.
		return Params{
			WindowStart:  pools.MaxDate - 2*pools.WindowMillis,
			WindowMillis: pools.WindowMillis,
			Limit:        10,
		}
	}, runBI2[*store.Txn], runBI2[*store.SnapshotView]),
	spec(3, bindFixed(Params{}), runBI3[*store.Txn], runBI3[*store.SnapshotView]),
	spec(4, bindFixed(Params{Limit: 20}), runBI4[*store.Txn], runBI4[*store.SnapshotView]),
	spec(5, bindFixed(Params{}), runBI5[*store.Txn], runBI5[*store.SnapshotView]),
	spec(6, func(pools *workload.ParamPools, rnd *xrand.Rand) Params {
		return Params{CreatedBefore: pools.MaxDate, MaxMessages: 3}
	}, runBI6[*store.Txn], runBI6[*store.SnapshotView]),
	spec(7, bindFixed(Params{Limit: 10}), runBI7[*store.Txn], runBI7[*store.SnapshotView]),
	spec(8, bindFixed(Params{}), runBI8[*store.Txn], runBI8[*store.SnapshotView]),
}
