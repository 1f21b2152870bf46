package store

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// FuzzWALReplay feeds hostile bytes to the segmented replay path. Each
// fuzz directory is a two-segment store: a FIXED, genuinely valid sealed
// segment plus the fuzz input as the final segment, under a manifest
// retaining both. Open must never panic; it either refuses the directory
// (foreign header, torn sealed data, or a checksummed payload that does
// not parse — version skew must not truncate acknowledged data) or
// recovers: the sealed segment's records completely (sealed segments
// never replay partially) plus a stable longest-valid-prefix of the
// final one — reopening recovers exactly the same records and shrinks
// nothing further.
func FuzzWALReplay(f *testing.F) {
	// Build a genuine rotated store once: 2 records under the default
	// caps, then a reopen under a one-record cap whose first append
	// rotates, leave segment 1 sealed with 2 records and segment 2 live
	// with 1.
	seedDir := f.TempDir()
	const sealedRecords = 2
	rng := rand.New(rand.NewSource(42))
	put := 0
	for _, open := range []struct {
		opts    Options
		records int
	}{
		{Options{SnapshotEvery: -1}, sealedRecords},
		{Options{SnapshotEvery: -1, SegmentBytes: oneRecordPerSegment}, 1},
	} {
		reg := server.NewRegistry()
		st, err := Open(seedDir, open.opts, reg.Put)
		if err != nil {
			f.Fatal(err)
		}
		reg.SetPersister(st)
		for i := 0; i < open.records; i++ {
			spec := specs[put%len(specs)]
			put++
			if err := reg.Put(spec.name, randomSummary(rng, spec)); err != nil {
				f.Fatal(err)
			}
		}
		st.Close()
	}
	sealed, err := os.ReadFile(filepath.Join(seedDir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, segmentName(2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // truncated final record
	f.Add(append(append([]byte{}, valid...), 0xCB)) // garbage trailer
	f.Add([]byte(segMagic))                         // empty segment
	f.Add([]byte("CWAL"))                           // torn header
	f.Add([]byte("NOPE!records"))                   // foreign file
	f.Add([]byte{})                                 // zero bytes (fresh-crash residue)
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)-1] ^= 0xFF // CRC mismatch in the last record
	f.Add(corrupt)
	oversized := append([]byte{}, valid[:magicLen]...)
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31-1) // absurd declared length
	f.Add(append(append(oversized, hdr[:]...), 0xEE, 0xEE))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		finalPath := filepath.Join(dir, segmentName(2))
		if err := os.WriteFile(finalPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(dir, 1, 2); err != nil {
			t.Fatal(err)
		}
		var first int
		st, err := Open(dir, Options{}, func(string, core.Summary) error { first++; return nil })
		if err != nil {
			// A refusal (foreign header, or checksummed-but-unintelligible
			// payload), not a recovery; nothing more to check.
			return
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		// Success means the sealed segment replayed in full — hostile bytes
		// in the final segment must never swallow acknowledged records that
		// live before it in the log.
		if first < sealedRecords {
			t.Fatalf("recovered %d records, sealed segment alone holds %d", first, sealedRecords)
		}
		// Open truncated the final segment to its valid prefix: replaying
		// must find the identical record count, and the file must now end
		// exactly at a record boundary (a third open must not shrink it
		// further).
		size := fileSize(t, finalPath)
		var second int
		st2, err := Open(dir, Options{}, func(string, core.Summary) error { second++; return nil })
		if err != nil {
			t.Fatalf("reopen after truncation failed: %v", err)
		}
		st2.Close()
		if second != first {
			t.Fatalf("recovered %d records, then %d from the truncated log", first, second)
		}
		if got := fileSize(t, finalPath); got != size {
			t.Fatalf("valid prefix not stable: %d then %d bytes", size, got)
		}
	})
}
