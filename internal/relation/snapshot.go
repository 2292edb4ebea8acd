package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
)

// Snapshot format (.pfdt): the dictionary-encoded columnar table
// serialized directly — load is one sequential read plus integrity
// checks, no CSV parsing and no re-interning.
//
// All integers are little-endian. Layout:
//
//	offset 0   magic "PFDT" (4 bytes)
//	offset 4   format version, uint16 (SnapshotVersion)
//	offset 6   reserved, uint16 (written 0, ignored on read)
//	offset 8   XXH64 checksum of the body (offset 16 .. EOF), uint64
//	offset 16  body:
//	    table name        uint32 length + bytes
//	    column count      uint32
//	    row count         uint64
//	    per column, in order:
//	        column name   uint32 length + bytes
//	        dict length   uint32
//	        dict entries  uint32 length + bytes, each, in code order
//	        padding       zero bytes to the next 8-byte file offset
//	        codes block   row count × uint32, raw
//	        padding       zero bytes to the next 8-byte file offset
//
// The codes blocks — the bulk of the file — start at 8-byte-aligned
// offsets, so a memory-mapped file can serve them in place as aligned
// []uint32 data. Dictionary counts and the value→code lookup are not
// stored; both are rebuilt on load (counts are derivable from the
// codes, and storing them would just be more bytes to checksum).
//
// Version policy mirrors the Ruleset JSON envelope: readers accept
// every version from 1 up to SnapshotVersion and reject newer ones.
// The version is validated before the checksum, so a future-version
// file is reported as such even though this build cannot checksum its
// (unknown) layout.

// SnapshotVersion is the .pfdt format version this build writes.
const SnapshotVersion = 1

// snapshotMagic identifies a .pfdt file.
var snapshotMagic = [4]byte{'P', 'F', 'D', 'T'}

// snapshotHeaderSize is the fixed header before the checksummed body.
const snapshotHeaderSize = 16

// Typed snapshot load failures, matchable with errors.Is. Every
// malformed input maps to one of these — LoadSnapshot never panics.
var (
	// ErrSnapshotMagic: the file does not start with the PFDT magic.
	ErrSnapshotMagic = errors.New("relation: not a table snapshot (bad magic)")
	// ErrSnapshotVersion: the file's format version is newer than this
	// build reads (or zero).
	ErrSnapshotVersion = errors.New("relation: unsupported snapshot version")
	// ErrSnapshotChecksum: the body bytes do not match the header
	// checksum.
	ErrSnapshotChecksum = errors.New("relation: snapshot checksum mismatch")
	// ErrSnapshotTruncated: the body ends before the declared structure
	// does.
	ErrSnapshotTruncated = errors.New("relation: truncated snapshot")
	// ErrSnapshotCorrupt: structurally invalid contents under a valid
	// checksum frame (out-of-range codes, absurd counts).
	ErrSnapshotCorrupt = errors.New("relation: corrupt snapshot")
)

// WriteSnapshot serializes the table in the .pfdt binary format.
func (t *Table) WriteSnapshot(w io.Writer) error {
	body := t.appendSnapshotBody(nil)
	var hdr [snapshotHeaderSize]byte
	copy(hdr[0:4], snapshotMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], SnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], xxh64(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// appendSnapshotBody renders the checksummed body after the header.
func (t *Table) appendSnapshotBody(b []byte) []byte {
	b = appendSnapStr(b, t.Name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Cols)))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.nrows))
	for i := range t.cols {
		c := &t.cols[i]
		b = appendSnapStr(b, t.Cols[i])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.dict)))
		for _, v := range c.dict {
			b = appendSnapStr(b, v)
		}
		b = appendSnapPad(b)
		for _, code := range c.codes {
			b = binary.LittleEndian.AppendUint32(b, code)
		}
		b = appendSnapPad(b)
	}
	return b
}

func appendSnapStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendSnapPad pads to the next 8-byte boundary of the final file
// offset (body offset + header size).
func appendSnapPad(b []byte) []byte {
	for (len(b)+snapshotHeaderSize)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// WriteSnapshotFile writes the table to path in the .pfdt format.
func (t *Table) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a table from the .pfdt binary format. The whole
// input is read into memory, the header is validated (magic, then
// version, then body checksum — in that order, so future-version files
// are identified before their unknown layout is checksummed), and the
// columns are decoded with bounds checks at every step: any malformed
// input yields a typed error, never a panic. Dictionary counts are
// rebuilt from the decoded codes; the intern lookup is rebuilt lazily
// on the first write (see column.intern).
func LoadSnapshot(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("relation: reading snapshot: %w", err)
	}
	return loadSnapshotBytes(raw)
}

// LoadSnapshotFile reads a .pfdt file.
func LoadSnapshotFile(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadSnapshotBytes(raw)
}

func loadSnapshotBytes(raw []byte) (*Table, error) {
	if len(raw) < snapshotHeaderSize {
		if len(raw) < 4 || [4]byte(raw[0:4]) != snapshotMagic {
			return nil, ErrSnapshotMagic
		}
		return nil, ErrSnapshotTruncated
	}
	if [4]byte(raw[0:4]) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	version := binary.LittleEndian.Uint16(raw[4:6])
	if version < 1 || version > SnapshotVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build reads up to v%d",
			ErrSnapshotVersion, version, SnapshotVersion)
	}
	want := binary.LittleEndian.Uint64(raw[8:16])
	body := raw[snapshotHeaderSize:]
	if got := xxh64(body); got != want {
		return nil, fmt.Errorf("%w: body hashes to %016x, header says %016x",
			ErrSnapshotChecksum, got, want)
	}

	cur := snapCursor{b: body}
	name, err := cur.str()
	if err != nil {
		return nil, err
	}
	ncols, err := cur.u32()
	if err != nil {
		return nil, err
	}
	nrows64, err := cur.u64()
	if err != nil {
		return nil, err
	}
	// A column needs at least 4 bytes per row (its codes block), so both
	// counts are bounded by the body size — reject before allocating.
	if nrows64 > uint64(len(body)) {
		return nil, fmt.Errorf("%w: %d rows declared in a %d-byte body",
			ErrSnapshotCorrupt, nrows64, len(body))
	}
	nrows := int(nrows64)
	if uint64(ncols) > uint64(len(body)) {
		return nil, fmt.Errorf("%w: %d columns declared in a %d-byte body",
			ErrSnapshotCorrupt, ncols, len(body))
	}

	cols := make([]string, ncols)
	t := &Table{Name: name}
	t.cols = make([]column, ncols)
	for i := range t.cols {
		colName, err := cur.str()
		if err != nil {
			return nil, err
		}
		cols[i] = colName
		dictLen, err := cur.u32()
		if err != nil {
			return nil, err
		}
		if uint64(dictLen) > uint64(len(body)) {
			return nil, fmt.Errorf("%w: dictionary of %d entries in a %d-byte body",
				ErrSnapshotCorrupt, dictLen, len(body))
		}
		c := &t.cols[i]
		// Decode the dictionary region in two passes: validate every
		// entry length, then convert the whole region to ONE string and
		// slice the entries out of it — substrings share the blob's
		// backing array, so a 100k-entry dictionary costs one allocation
		// instead of 100k. The value→code lookup is not kept:
		// column.intern rebuilds it lazily on the first write, and
		// read-only consumers (detection, warmup) never hold it. A
		// dictionary that holds a value twice is corrupt: the codes
		// would then split one value's rows between two groups.
		c.dict = make([]string, dictLen)
		start := cur.off
		pos := start
		for j := uint32(0); j < dictLen; j++ {
			if len(body)-pos < 4 {
				return nil, fmt.Errorf("%w: dictionary entry %d of column %q exceeds body",
					ErrSnapshotTruncated, j, colName)
			}
			n := binary.LittleEndian.Uint32(body[pos:])
			pos += 4
			if uint64(n) > uint64(len(body)-pos) {
				return nil, fmt.Errorf("%w: dictionary entry %d of column %q exceeds body",
					ErrSnapshotTruncated, j, colName)
			}
			pos += int(n)
		}
		blob := string(body[start:pos])
		seen := make(map[string]struct{}, dictLen)
		rel := 0
		for code := range c.dict {
			n := int(binary.LittleEndian.Uint32(body[start+rel:]))
			v := blob[rel+4 : rel+4+n]
			if _, dup := seen[v]; dup {
				return nil, fmt.Errorf("%w: column %q: dictionary holds %q twice",
					ErrSnapshotCorrupt, colName, v)
			}
			seen[v] = struct{}{}
			c.dict[code] = v
			rel += 4 + n
		}
		cur.off = pos
		if err := cur.pad(); err != nil {
			return nil, err
		}
		codesRaw, err := cur.take(nrows * 4)
		if err != nil {
			return nil, err
		}
		c.codes = make([]uint32, nrows)
		c.counts = make([]int, dictLen)
		for r := range c.codes {
			code := binary.LittleEndian.Uint32(codesRaw[r*4:])
			if code >= dictLen {
				return nil, fmt.Errorf("%w: column %q row %d: code %d out of range (dict has %d)",
					ErrSnapshotCorrupt, colName, r, code, dictLen)
			}
			c.codes[r] = code
			c.counts[code]++
		}
		if err := cur.pad(); err != nil {
			return nil, err
		}
	}
	t.Cols = cols
	t.nrows = nrows
	t.reindex()
	return t, nil
}

// snapCursor walks the snapshot body with explicit bounds checks.
type snapCursor struct {
	b   []byte
	off int
}

func (c *snapCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, fmt.Errorf("%w: need %d bytes at body offset %d, have %d",
			ErrSnapshotTruncated, n, c.off, len(c.b)-c.off)
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *snapCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *snapCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *snapCursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(len(c.b)-c.off) {
		return "", fmt.Errorf("%w: string of %d bytes at body offset %d exceeds body",
			ErrSnapshotTruncated, n, c.off)
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// pad skips to the next 8-byte file offset (body offset + header).
func (c *snapCursor) pad() error {
	for (c.off+snapshotHeaderSize)%8 != 0 {
		if _, err := c.take(1); err != nil {
			return err
		}
	}
	return nil
}

// XXH64 is the XXH64 hash (seed 0) used to checksum every binary
// artifact in the repo — the .pfdt table snapshots here, and the
// durable WAL/snapshot frames in internal/durable, which reuse this
// codec's conventions (magic, version u16, XXH64) byte for byte.
func XXH64(b []byte) uint64 { return xxh64(b) }

// xxh64 is the XXH64 hash (seed 0) of the snapshot body — implemented
// inline because the module takes no external dependencies. Constants
// and structure follow the published algorithm.
func xxh64(b []byte) uint64 {
	const (
		prime1 = 11400714785074694791
		prime2 = 14029467366897019727
		prime3 = 1609587929392839161
		prime4 = 9650029242287828579
		prime5 = 2870177450012600261
	)
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		v1 := uint64(prime1)
		v1 += prime2 // wraps mod 2^64, per the reference accumulator init
		v2 := uint64(prime2)
		v3 := uint64(0)
		v4 := ^uint64(prime1) + 1 // -prime1 mod 2^64
		for len(b) >= 32 {
			v1 = bits.RotateLeft64(v1+binary.LittleEndian.Uint64(b[0:8])*prime2, 31) * prime1
			v2 = bits.RotateLeft64(v2+binary.LittleEndian.Uint64(b[8:16])*prime2, 31) * prime1
			v3 = bits.RotateLeft64(v3+binary.LittleEndian.Uint64(b[16:24])*prime2, 31) * prime1
			v4 = bits.RotateLeft64(v4+binary.LittleEndian.Uint64(b[24:32])*prime2, 31) * prime1
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h ^= bits.RotateLeft64(v*prime2, 31) * prime1
			h = h*prime1 + prime4
		}
	} else {
		h = prime5
	}
	h += n
	for len(b) >= 8 {
		k := bits.RotateLeft64(binary.LittleEndian.Uint64(b)*prime2, 31) * prime1
		h = bits.RotateLeft64(h^k, 27)*prime1 + prime4
		b = b[8:]
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b))*prime1, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*prime5, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
