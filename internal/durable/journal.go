// Package durable gives pfdserved crash-safe tenant state: an
// append-only write-ahead journal of tenant lifecycle events plus
// periodic per-tenant snapshots, replayed at boot into the state the
// daemon had when it last acknowledged a write.
//
// The design follows the repo's .pfdt codec conventions — 4-byte
// magic, little-endian version u16, XXH64 integrity hashes, and the
// same version-acceptance policy (read 1..current, reject newer) —
// applied to two artifacts:
//
//   - wal.pfdw: the journal. An 8-byte header, then length-prefixed
//     records, each carrying the XXH64 of its payload. Records are
//     appended before the write they describe is acknowledged; with
//     Fsync enabled each append is synced, so an acknowledged batch
//     survives power loss, not just process death.
//   - snap/<tenant>.pfds: per-tenant snapshots written by compaction —
//     ruleset JSON, cumulative counters, and the recent-violation ring
//     — via write-to-temp, fsync, atomic rename, fsync-dir. After all
//     snapshots land, the journal is atomically replaced by an empty
//     one, bounding replay work.
//
// Recovery policy: a torn or truncated final record — the signature of
// a crash mid-append — is tolerated by truncating the journal at the
// last valid record. Corruption in the middle of the journal (a bad
// record with valid records after it) cannot be explained by a torn
// tail and is reported as a typed ErrJournalCorrupt instead of being
// silently dropped.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"pfd/internal/relation"
)

// JournalVersion is the wal.pfdw format version this build writes.
// Readers accept 1..JournalVersion and reject newer files.
const JournalVersion = 1

// journalMagic identifies a wal.pfdw journal file.
var journalMagic = [4]byte{'P', 'F', 'D', 'W'}

// journalHeaderSize is the fixed file header: magic, version u16,
// reserved u16.
const journalHeaderSize = 8

// recordFrameSize is the per-record frame before the payload: payload
// length u32, XXH64(payload) u64.
const recordFrameSize = 12

// MaxRecordBytes bounds a single record's payload. The largest
// legitimate record is a ruleset PUT, itself bounded by the HTTP
// layer's 16 MiB ruleset cap; anything bigger is a garbage length
// from a torn write or corruption, rejected before allocating.
const MaxRecordBytes = 32 << 20

// Typed journal failures, matchable with errors.Is.
var (
	// ErrJournalMagic: the file does not start with the PFDW magic.
	ErrJournalMagic = errors.New("durable: not a journal (bad magic)")
	// ErrJournalVersion: the journal's format version is newer than
	// this build reads (or zero).
	ErrJournalVersion = errors.New("durable: unsupported journal version")
	// ErrJournalCorrupt: a record fails its checksum or does not decode
	// while valid records follow it — mid-file corruption, which a torn
	// tail cannot explain. Boot refuses to guess and fails loudly.
	ErrJournalCorrupt = errors.New("durable: corrupt journal record")
)

// Record kinds. The kind byte leads every payload.
const (
	kindRuleset byte = 1 // ruleset installed (PUT or boot preload)
	kindIngest  byte = 2 // an ingest batch was accepted
	kindEvict   byte = 3 // idle eviction closed the engine generation
	kindDelete  byte = 4 // tenant deleted
	kindMark    byte = 5 // reopen probe / no-op marker
)

// Record is one journal entry. Exactly one of the kind-specific
// pointers is set, matching Kind.
type Record struct {
	Kind    byte
	Ruleset *RulesetRecord
	Ingest  *IngestRecord
	Tenant  string // kindEvict / kindDelete: the tenant acted on
}

// RulesetRecord journals a ruleset install: the full artifact JSON,
// write-ahead of the acknowledgment, with the tenant's ruleset
// generation (1 for the first install, +1 per hot reload).
type RulesetRecord struct {
	Tenant     string          `json:"tenant"`
	Generation int64           `json:"generation"`
	Ruleset    json.RawMessage `json:"ruleset"`
}

// IngestRecord journals one accepted ingest batch. Accepted is the
// batch's own tuple count; the remaining counters are the tenant's
// cumulative totals observed after the batch was folded, so
// replay can restore exact counts without replaying tuples. Digest is
// an order-sensitive XXH64 fold of the batch's tuples — an audit
// anchor tying the journal to the bytes that were acknowledged.
type IngestRecord struct {
	Tenant         string `json:"tenant"`
	Digest         uint64 `json:"digest"`
	Accepted       int64  `json:"accepted"`
	Rows           int64  `json:"rows"`
	LiveViolations int64  `json:"live_violations"`
	RetroSignals   int64  `json:"retro_signals"`
}

// tenantRecord is the shared payload of evict/delete/mark records.
type tenantRecord struct {
	Tenant string `json:"tenant"`
}

// appendJournalHeader renders the 8-byte file header.
func appendJournalHeader(b []byte) []byte {
	b = append(b, journalMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, JournalVersion)
	b = binary.LittleEndian.AppendUint16(b, 0) // reserved
	return b
}

// encodeRecord frames one record: length, XXH64, then the payload
// (kind byte + JSON body).
func encodeRecord(rec Record) ([]byte, error) {
	var body any
	switch rec.Kind {
	case kindRuleset:
		body = rec.Ruleset
	case kindIngest:
		body = rec.Ingest
	case kindEvict, kindDelete, kindMark:
		body = tenantRecord{Tenant: rec.Tenant}
	default:
		return nil, fmt.Errorf("durable: unknown record kind %d", rec.Kind)
	}
	js, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, 1+len(js))
	payload = append(payload, rec.Kind)
	payload = append(payload, js...)
	out := make([]byte, 0, recordFrameSize+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint64(out, relation.XXH64(payload))
	return append(out, payload...), nil
}

// decodePayload parses a checksum-verified payload into a Record. A
// failure here means the record was written malformed (or the file was
// doctored under a recomputed checksum) — corruption, not a torn tail.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: zero-length payload", ErrJournalCorrupt)
	}
	rec := Record{Kind: payload[0]}
	js := payload[1:]
	switch rec.Kind {
	case kindRuleset:
		rec.Ruleset = &RulesetRecord{}
		if err := json.Unmarshal(js, rec.Ruleset); err != nil {
			return Record{}, fmt.Errorf("%w: ruleset record: %v", ErrJournalCorrupt, err)
		}
		if rec.Ruleset.Tenant == "" || len(rec.Ruleset.Ruleset) == 0 {
			return Record{}, fmt.Errorf("%w: ruleset record missing tenant or rules", ErrJournalCorrupt)
		}
	case kindIngest:
		rec.Ingest = &IngestRecord{}
		if err := json.Unmarshal(js, rec.Ingest); err != nil {
			return Record{}, fmt.Errorf("%w: ingest record: %v", ErrJournalCorrupt, err)
		}
		if rec.Ingest.Tenant == "" {
			return Record{}, fmt.Errorf("%w: ingest record missing tenant", ErrJournalCorrupt)
		}
	case kindEvict, kindDelete, kindMark:
		var tr tenantRecord
		if err := json.Unmarshal(js, &tr); err != nil {
			return Record{}, fmt.Errorf("%w: tenant record: %v", ErrJournalCorrupt, err)
		}
		rec.Tenant = tr.Tenant
	default:
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrJournalCorrupt, rec.Kind)
	}
	return rec, nil
}

// frameAt tries to parse one record frame at data[off:]. ok reports a
// complete frame with a valid checksum and bounded length; torn
// reports that the remaining bytes cannot hold the declared frame —
// the truncation signature.
func frameAt(data []byte, off int) (payload []byte, next int, ok, torn bool) {
	rest := data[off:]
	if len(rest) < recordFrameSize {
		return nil, 0, false, true
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	if n == 0 || n > MaxRecordBytes {
		return nil, 0, false, false
	}
	if uint64(len(rest)-recordFrameSize) < uint64(n) {
		return nil, 0, false, true
	}
	payload = rest[recordFrameSize : recordFrameSize+int(n)]
	if relation.XXH64(payload) != binary.LittleEndian.Uint64(rest[4:12]) {
		return nil, 0, false, false
	}
	return payload, off + recordFrameSize + int(n), true, false
}

// corruptionLookahead bounds the scan for a valid record beyond a bad
// one — far enough to span any legitimate record gap, cheap enough
// that fuzzed garbage stays fast.
const corruptionLookahead = 1 << 20

// hasValidRecordAfter scans forward from off for any parseable,
// checksum-valid record — the discriminator between a torn tail
// (nothing valid follows: truncate) and mid-file corruption (valid
// records follow: typed error).
func hasValidRecordAfter(data []byte, off int) bool {
	limit := len(data) - recordFrameSize
	if capped := off + corruptionLookahead; capped < limit {
		limit = capped
	}
	for q := off + 1; q <= limit; q++ {
		if _, _, ok, _ := frameAt(data, q); ok {
			return true
		}
	}
	return false
}

// replayJournal walks a journal image (header included) and returns
// the decoded records plus validLen, the byte offset of the last valid
// record's end — the length the file should be truncated to when
// validLen < len(data) (a torn tail). Errors are typed: bad magic,
// future version, or mid-file corruption.
func replayJournal(data []byte) (recs []Record, validLen int, err error) {
	if len(data) == 0 {
		return nil, 0, nil // fresh journal: header not yet written
	}
	if len(data) < journalHeaderSize {
		// A crash during the initial header write: any prefix of a valid
		// header is readable as "nothing yet", anything else is not a
		// journal.
		if string(data) == string(appendJournalHeader(nil)[:len(data)]) {
			return nil, 0, nil
		}
		return nil, 0, ErrJournalMagic
	}
	if [4]byte(data[0:4]) != journalMagic {
		return nil, 0, ErrJournalMagic
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version < 1 || version > JournalVersion {
		return nil, 0, fmt.Errorf("%w: file is v%d, this build reads up to v%d",
			ErrJournalVersion, version, JournalVersion)
	}
	off := journalHeaderSize
	for off < len(data) {
		payload, next, ok, torn := frameAt(data, off)
		if !ok {
			if !torn && hasValidRecordAfter(data, off) {
				return nil, 0, fmt.Errorf("%w: invalid record at offset %d with valid records after it",
					ErrJournalCorrupt, off)
			}
			// Torn tail: the crash signature. Truncate here.
			return recs, off, nil
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			// The checksum passed, the payload is still garbage: that
			// was written this way — corruption, wherever it sits.
			return nil, 0, derr
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}
