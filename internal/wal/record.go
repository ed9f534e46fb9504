// Package wal is the durability layer: per-shard append-only event
// logs (write-ahead logs), checkpoint manifests, and the reader that
// recovery replays from.
//
// # Record codec
//
// A Record is one JSON line of the log: a routed cluster event or a
// catalog registry transition. Encoding is a hand-rolled appender in
// the style of the internal/httpserve streaming codec (zero
// allocations beyond the caller's buffer); decoding is strict (unknown
// fields are errors — a corrupt log must fail loudly, never
// reinterpret).
//
// # Log layout and ordering
//
// A Log is one directory. Each writer — one per shard worker, plus one
// for the catalog registry — owns an append-only segment file per
// checkpoint generation (`seg-<gen>-<name>.ndjson`); a checkpoint
// seals the current generation's segments and writes a manifest
// (`ckpt-<gen>.json`) carrying the quiesced fleet's rendered state as
// a recovery-time verification artifact. Records carry a global
// sequence number assigned at apply time, so a reader can merge every
// segment back into one total order that preserves each tenant's (and
// the registry's) apply order regardless of how many shards wrote the
// log — which is exactly what lets recovery replay into a *different*
// shard count, and lets one log span generations written by different
// shard counts (a reshard rotates to a new writer set).
//
// # Torn tails
//
// Only the final line of a writer's last segment may be torn (a crash
// mid-write); the reader tolerates it and recovery truncates it. A
// malformed line anywhere else — mid-file, or a terminated-but-invalid
// final line — is a hard error: the log is never silently skipped
// over. FuzzWALReplay pins the parser against both rules.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/ndjson"
)

// Record types. The vocabulary is the union of the cluster's routed
// events and the catalog registry's admission protocol.
const (
	// TypeStreamArrival .. TypeResolve are the cluster's routed events.
	TypeStreamArrival   = "stream_arrival"
	TypeStreamDeparture = "stream_departure"
	TypeUserJoin        = "user_join"
	TypeUserLeave       = "user_leave"
	TypeResolve         = "resolve"
	// TypeCatalogAcquire and TypeCatalogSettle are the registry's log
	// plane: one record per admission quote and per reference
	// transition, in the registry's own serialization order.
	TypeCatalogAcquire = "catalog_acquire"
	TypeCatalogSettle  = "catalog_settle"
)

// Settle op tokens (Record.Op on a TypeCatalogSettle record), matching
// catalog's settlement operations.
const (
	OpCommit         = "commit"
	OpRecharge       = "recharge"
	OpRelease        = "release"
	OpReleasePending = "release_pending"
	OpAdopt          = "adopt"
)

// Record is one logged event. Zero-valued fields are omitted on the
// wire; which fields are meaningful depends on Type. Seq is the global
// apply-order sequence number.
type Record struct {
	Seq     uint64  `json:"seq,omitempty"`
	Type    string  `json:"type"`
	Tenant  int     `json:"tenant,omitempty"`
	Stream  int     `json:"stream,omitempty"`
	User    int     `json:"user,omitempty"`
	Install bool    `json:"install,omitempty"`
	Catalog string  `json:"catalog,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Origin  bool    `json:"origin,omitempty"`
	// Sess and CSeq tie a routed event to a resumable ingestion
	// session: the client-chosen session id and the client-assigned
	// per-session sequence number (exactly-once resume — recovery
	// rebuilds each session's applied set from the CSeqs logged under
	// its Sess). They never affect how the event applies.
	Sess    string  `json:"sess,omitempty"`
	CSeq    uint64  `json:"cseq,omitempty"`
	Op      string  `json:"op,omitempty"`
	Full    float64 `json:"full,omitempty"`
	Charged float64 `json:"charged,omitempty"`
}

// AppendRecord appends r as one JSON line (newline-terminated) to b
// and returns the extended buffer. It is the allocation-free encode
// path of the shard workers' and the registry's log appenders; output
// decodes exactly (floats use the shortest round-trip form).
func AppendRecord(b []byte, r *Record) []byte {
	b = append(b, '{')
	if r.Seq != 0 {
		b = append(b, `"seq":`...)
		b = strconv.AppendUint(b, r.Seq, 10)
		b = append(b, ',')
	}
	b = append(b, `"type":`...)
	b = ndjson.AppendString(b, r.Type)
	if r.Tenant != 0 {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendInt(b, int64(r.Tenant), 10)
	}
	if r.Stream != 0 {
		b = append(b, `,"stream":`...)
		b = strconv.AppendInt(b, int64(r.Stream), 10)
	}
	if r.User != 0 {
		b = append(b, `,"user":`...)
		b = strconv.AppendInt(b, int64(r.User), 10)
	}
	if r.Install {
		b = append(b, `,"install":true`...)
	}
	if r.Catalog != "" {
		b = append(b, `,"catalog":`...)
		b = ndjson.AppendString(b, r.Catalog)
	}
	if r.Scale != 0 {
		b = append(b, `,"scale":`...)
		b = strconv.AppendFloat(b, r.Scale, 'g', -1, 64)
	}
	if r.Origin {
		b = append(b, `,"origin":true`...)
	}
	if r.Sess != "" {
		b = append(b, `,"sess":`...)
		b = ndjson.AppendString(b, r.Sess)
	}
	if r.CSeq != 0 {
		b = append(b, `,"cseq":`...)
		b = strconv.AppendUint(b, r.CSeq, 10)
	}
	if r.Op != "" {
		b = append(b, `,"op":`...)
		b = ndjson.AppendString(b, r.Op)
	}
	if r.Full != 0 {
		b = append(b, `,"full":`...)
		b = strconv.AppendFloat(b, r.Full, 'g', -1, 64)
	}
	if r.Charged != 0 {
		b = append(b, `,"charged":`...)
		b = strconv.AppendFloat(b, r.Charged, 'g', -1, 64)
	}
	return append(b, '}', '\n')
}

// DecodeRecord parses one JSON line into a Record. It is strict: an
// unknown field, trailing data after the object, or a missing type are
// all errors — a durability log is never reinterpreted loosely.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("wal: decode record: %w", err)
	}
	if dec.More() {
		return Record{}, fmt.Errorf("wal: decode record: trailing data after object")
	}
	if r.Type == "" {
		return Record{}, fmt.Errorf("wal: decode record: missing type")
	}
	return r, nil
}
