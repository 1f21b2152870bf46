package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The manifest is the 25-byte source of truth for which WAL segments are
// live:
//
//	offset  size  field
//	0       5     magic "CMAN1"
//	5       8     first live segment sequence, uint64 little-endian
//	13      8     last (appending) segment sequence, uint64 little-endian
//	21      4     CRC32-C of bytes [5, 21), uint32 little-endian
//
// Recovery replays exactly segments [first, last]: a segment below first
// is a superseded file whose deletion a crash interrupted (removed), one
// above last is the residue of a crash between segment creation and
// manifest update (quarantined — it can hold no acknowledged record,
// because appends only start after the manifest names the segment). The
// manifest is rewritten atomically (temp file + fsync + rename + dir
// fsync) so it is always one of its two neighboring states, never torn.

const (
	manifestName        = "MANIFEST"
	manifestMagic       = "CMAN1"
	manifestLen         = magicLen + 16 + 4
	manifestTempPattern = "manifest-*.tmp"
)

// writeManifest atomically replaces the manifest with [first, last].
func writeManifest(dir string, first, last int64) error {
	if first < 1 || last < first {
		return fmt.Errorf("store: invalid manifest range [%d, %d]", first, last)
	}
	var buf [manifestLen]byte
	copy(buf[:magicLen], manifestMagic)
	binary.LittleEndian.PutUint64(buf[magicLen:magicLen+8], uint64(first))
	binary.LittleEndian.PutUint64(buf[magicLen+8:magicLen+16], uint64(last))
	binary.LittleEndian.PutUint32(buf[magicLen+16:], crc32.Checksum(buf[magicLen:magicLen+16], crcTable))
	tmp, err := os.CreateTemp(dir, manifestTempPattern)
	if err != nil {
		return fmt.Errorf("store: creating manifest temp file: %w", err)
	}
	path := tmp.Name()
	if _, err := tmp.Write(buf[:]); err != nil {
		tmp.Close()
		os.Remove(path)
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(path)
		return fmt.Errorf("store: syncing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("store: closing manifest temp file: %w", err)
	}
	if err := os.Rename(path, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(path)
		return fmt.Errorf("store: promoting manifest: %w", err)
	}
	return syncDir(dir)
}

// readManifest reads and validates the manifest. ok is false (with a nil
// error) when none exists — a fresh directory, or one where a crash came
// between creating segment 1 and writing the first manifest.
func readManifest(dir string) (first, last int64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: reading manifest: %w", err)
	}
	if len(data) != manifestLen || string(data[:magicLen]) != manifestMagic {
		return 0, 0, false, fmt.Errorf("store: manifest is malformed (%d bytes, magic %q)", len(data), data[:min(len(data), magicLen)])
	}
	if got, want := crc32.Checksum(data[magicLen:magicLen+16], crcTable), binary.LittleEndian.Uint32(data[magicLen+16:]); got != want {
		return 0, 0, false, fmt.Errorf("store: manifest checksum mismatch (stored %#08x, computed %#08x)", want, got)
	}
	first = int64(binary.LittleEndian.Uint64(data[magicLen : magicLen+8]))
	last = int64(binary.LittleEndian.Uint64(data[magicLen+8 : magicLen+16]))
	if first < 1 || last < first {
		return 0, 0, false, fmt.Errorf("store: manifest names an invalid segment range [%d, %d]", first, last)
	}
	return first, last, true, nil
}
