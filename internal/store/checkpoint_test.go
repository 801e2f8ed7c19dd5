package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/intern"
	"ldbcsnb/internal/xrand"
)

// Checkpoint format tests: the string dictionary (stored once, indexed by
// dense file-local indexes, independent of process symbol assignment) and
// the version-refusal fallback that keeps directories written by older
// format versions openable through full WAL replay.

// TestCheckpointDictionaryRoundTrip writes a store whose nodes share one
// highly repeated string value plus per-node unique ones, and pins the two
// dictionary properties: the file stores each distinct string exactly once
// (byte-searchable, since dictionary strings are written verbatim), and a
// restore — even after the process interner's symbol assignment has been
// shifted by unrelated interning — resolves every property back to the
// right string.
func TestCheckpointDictionaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const shared = "zz-dict-shared-marker-zz"
	const nPersons = 50
	for i := 1; i <= nPersons; i++ {
		tx := p.Begin()
		if err := tx.CreateNode(personID(uint32(i)), Props{
			NewProp(PropBrowserUsed, String(shared)),
			NewProp(PropLastName, String(fmt.Sprintf("zz-dict-unique-%03d", i))),
			NewProp(PropLength, Int64(int64(1000+i))),
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cks, err := scanCheckpoints(dir)
	if err != nil || len(cks) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(shared)); n != 1 {
		t.Fatalf("shared string appears %d times in the checkpoint, want exactly 1 (dictionary)", n)
	}
	for i := 1; i <= nPersons; i++ {
		if n := bytes.Count(data, []byte(fmt.Sprintf("zz-dict-unique-%03d", i))); n != 1 {
			t.Fatalf("unique string %d appears %d times, want 1", i, n)
		}
	}

	// Shift the process interner's symbol space: a restore must map the
	// file's dense dictionary indexes through re-interning, never reuse the
	// writing run's symbols.
	for i := 0; i < 1000; i++ {
		intern.Intern(fmt.Sprintf("zz-dict-filler-%04d", i))
	}

	re, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS == 0 {
		t.Fatalf("recovery did not load the checkpoint: %+v", info)
	}
	v := re.CurrentView()
	for i := 1; i <= nPersons; i++ {
		id := personID(uint32(i))
		if got := v.Prop(id, PropBrowserUsed).Str(); got != shared {
			t.Fatalf("person %d: BrowserUsed = %q, want %q", i, got, shared)
		}
		if got, want := v.Prop(id, PropLastName).Str(), fmt.Sprintf("zz-dict-unique-%03d", i); got != want {
			t.Fatalf("person %d: LastName = %q, want %q", i, got, want)
		}
		if got := v.Prop(id, PropLength).Int(); got != int64(1000+i) {
			t.Fatalf("person %d: Length = %d", i, got)
		}
		// Same process, same string -> the restored Value must compare equal
		// to a freshly built one (symbol identity, the equivalence-suite
		// contract).
		if v.Prop(id, PropBrowserUsed) != String(shared) {
			t.Fatalf("person %d: restored Value not symbol-identical to String(%q)", i, shared)
		}
	}
}

// TestCheckpointV1VersionFallsBack simulates opening a directory whose
// newest checkpoint was written by format version 1: the loader must refuse
// it as errCkptVersion (not corruption), report it, and recover the full
// state from WAL replay alone — the WAL format is version-stable. The CRC is
// left stale too, but version is validated first and must win the error
// report.
func TestCheckpointV1VersionFallsBack(t *testing.T) {
	olderCheckpointFallsBack(t, 1, false)
}

// TestCheckpointV2VersionFallsBack is the same for version 2, the format
// that still carried secondary-index sections, with its CRC re-stamped so the
// version is the only thing wrong with the file. The store recovered by full
// replay then writes a version-3 checkpoint, and a reopen from that
// checkpoint must equal the live store too.
func TestCheckpointV2VersionFallsBack(t *testing.T) {
	re, live, pop := olderCheckpointFallsBack(t, 2, true)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := re.dir
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re3, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS != live.LastCommit() || len(info.BadCheckpoints) != 0 || info.Replayed != 0 {
		t.Fatalf("reopen from the version-3 checkpoint: %+v", info)
	}
	assertStoresEqual(t, live, re3.Store, pop)
}

// olderCheckpointFallsBack writes a directory with one checkpoint and its
// covered segments, stamps the checkpoint with an older format version
// (re-stamping the CRC when restampCRC is set), and checks that Open refuses
// it and recovers by full WAL replay into a store equal to the live one,
// which it returns open together with the live store and its population.
func olderCheckpointFallsBack(t *testing.T, version uint16, restampCRC bool) (*Persistent, *Store, []ids.ID) {
	t.Helper()
	dir := t.TempDir()
	opts := manualOpts()
	opts.KeepSegments = true // the covered segments stay for the full replay
	p, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	rl, rd := xrand.New(21), xrand.New(21)
	var pop []ids.ID
	for step := 1; step <= 8; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for step := 9; step <= 12; step++ {
		pop = growBoth(t, live, p.Store, rl, rd, pop, step)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cks, err := scanCheckpoints(dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("want 1 checkpoint, got %d (%v)", len(cks), err)
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:6], version)
	if restampCRC {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	}
	if err := os.WriteFile(cks[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := loadCheckpoint(New(), cks[0].path); !errors.Is(err, errCkptVersion) {
		t.Fatalf("version-%d file: err = %v, want errCkptVersion", version, err)
	} else if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version refusal reported as corruption: %v", err)
	}

	re, info := reopen(t, dir, opts)
	if len(info.BadCheckpoints) != 1 || info.BadCheckpoints[0] != filepath.Base(cks[0].path) {
		t.Fatalf("refused checkpoint not reported: %+v", info)
	}
	if info.CheckpointTS != 0 {
		t.Fatalf("recovery claims a checkpoint at %d, want full replay", info.CheckpointTS)
	}
	if info.Replayed != int(live.LastCommit()) {
		t.Fatalf("replayed %d records, live clock %d", info.Replayed, live.LastCommit())
	}
	assertStoresEqual(t, live, re.Store, pop)
	return re, live, pop
}
