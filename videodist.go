// Package videodist is the public API of this reproduction of
// Patt-Shamir & Rawitz, "Video distribution under multiple constraints"
// (ICDCS 2008; Theoretical Computer Science 412, 2011).
//
// The library solves the Multi-Budget Multi-Client Distribution problem
// (MMD): choose which video streams a server multicasts, and which of
// them each client receives, to maximize total utility subject to m
// server budgets (bandwidth, processing, ports, ...) and per-client
// capacity constraints (downlink, revenue caps, ...).
//
// # Quick start
//
//	in, _ := videodist.NewCableTV(videodist.CableTV{Channels: 50, Gateways: 12, Seed: 1})
//	assn, report, err := videodist.Solve(in, videodist.Options{})
//	// assn.UserStreams(u) is the channel lineup of gateway u;
//	// report.Value is the total utility.
//
// Solve runs the paper's Theorem 1.1 pipeline: the multi-budget
// instance is reduced to a single-budget one (Section 4), decomposed
// into unit-skew bands (Section 3), each band is solved by the fixed
// greedy (Section 2, Theorem 2.8), and every candidate is lifted back
// through the output transformation. The guarantee is
// O(m·m_c·log(2α·m_c)) in O(n²) time.
//
// SolveOnline runs the Section 5 Allocate algorithm: streams are
// considered in arrival order against exponential budget costs; for
// "small" streams it is (1+2·log₂µ)-competitive and never violates a
// budget. Use Normalize/CheckSmallStreams to verify the hypothesis.
//
// NewCluster operates many independent head-end tenants as one fleet:
// each tenant is pinned to a shard worker, stream-arrival and churn
// events are routed over channels and admitted one at a time in
// submission order, and results are aggregated deterministically. The serving surface is typed and
// per operation — OfferStream/DepartStream/UserLeave/UserJoin/Resolve
// sessions with sentinel errors (ErrUnknownTenant, ErrQueueFull,
// ErrClosed, ErrCanceled) and configurable backpressure; Resolve can
// install the offline Theorem 1.1 solution make-before-break
// (cmd/mmdserve is the CLI and HTTP/JSON front end). Every session
// method is a projection of Cluster.Apply, which applies one
// ClusterEvent and returns its StreamResult — the call a front end
// holding a routed event makes (repro/streamclient's Event.Routed maps
// a wire event onto one). With CatalogOptions the fleet shares streams
// across tenants (serving API v3): OfferCatalogStream/
// DepartCatalogStream admit by fleet-wide CatalogID under cross-shard
// reference counting, and the CatalogSharedOrigin cost model charges
// later tenants only the multicast-replication fraction of an
// already-transcoded origin.
// ApplyBatch applies a single-tenant event sequence as one shard
// message (the batched-ingestion path), and OpenStream (serving API v4)
// opens a persistent pipelined session — Submit events without waiting,
// Recv typed results in submission order under a bounded in-flight
// window — which the HTTP front end exposes as a long-lived NDJSON
// stream (POST /v1/stream; repro/streamclient is the Go client).
//
// ARCHITECTURE.md maps how these layers (solvers → headend → cluster →
// catalog → serving) fit together and which invariants pin them.
//
// Everything — the solvers, the exact branch-and-bound reference, the
// workload generators, the head-end and the serving layers — lives in
// internal packages; this package re-exports the surface a downstream
// user needs. Examples under
// examples/ and the experiment harness in bench_test.go exercise it.
package videodist

import (
	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
	"repro/internal/online"
	"repro/internal/wal"
)

// Core problem types (see internal/mmd for full documentation).
type (
	// Instance is a complete MMD problem instance.
	Instance = mmd.Instance
	// Stream is one multicast stream with its server cost vector.
	Stream = mmd.Stream
	// User is one client with utilities, loads, and capacities.
	User = mmd.User
	// Assignment maps users to stream sets. Internally it maintains
	// sorted per-user stream slices and a sorted range, so the read
	// paths (UserStreams, Range, Utility, ServerCost) are allocation-
	// free or single-alloc and never re-sort.
	Assignment = mmd.Assignment
	// LoadLedger incrementally maintains an assignment's server costs
	// and per-user loads, answering the guarded-admission question in
	// O(measures) per candidate (FitsDelta/CanAdmit) instead of a full
	// CheckFeasible rescan — the serving hot path's feasibility oracle.
	LoadLedger = mmd.LoadLedger
)

// NewLoadLedger returns an empty ledger for the instance; mirror every
// Assignment mutation into it (or Rebuild from the assignment) and ask
// FitsDelta before admitting.
func NewLoadLedger(in *Instance) *LoadLedger { return mmd.NewLoadLedger(in) }

// Solver configuration and reporting.
type (
	// Options configures Solve.
	Options = core.Options
	// Report describes a Solve run (value, skew, bands, guarantee).
	Report = core.Report
	// Normalization holds a globally normalized instance with its
	// global skew γ and µ (Section 5).
	Normalization = online.Normalization
	// Allocator is the stateful online algorithm of Section 5.
	Allocator = online.Allocator
)

// Algorithm selectors for Options.Algorithm.
const (
	// AlgoFixedGreedy is the O(n²) Theorem 2.8 building block (default).
	AlgoFixedGreedy = core.AlgoFixedGreedy
	// AlgoPartialEnum is the sharper, slower Section 2.3 building block.
	AlgoPartialEnum = core.AlgoPartialEnum
)

// Workload generator configurations (see internal/generator).
type (
	// CableTV generates the paper's motivating head-end scenario.
	CableTV = generator.CableTV
	// RandomSMD generates random single-budget instances with a target
	// local skew.
	RandomSMD = generator.RandomSMD
	// RandomMMD generates random multi-budget instances.
	RandomMMD = generator.RandomMMD
	// SmallStreams generates instances satisfying the Section 5
	// small-streams hypothesis.
	SmallStreams = generator.SmallStreams
)

// Sharded multi-tenant serving layer (see internal/cluster for the
// shard/batch/determinism contract). This is the serving API v2
// surface: typed per-operation request/response sessions replace the
// PR-1 fire-and-forget Submit(Event) — call OfferStream, DepartStream,
// UserLeave, UserJoin, and Resolve directly on a Cluster.
type (
	// Cluster operates many head-end tenants as one fleet: per-shard
	// workers, FIFO admission, deterministic aggregation, and typed
	// per-operation session methods (OfferStream, DepartStream,
	// UserLeave, UserJoin, Resolve).
	Cluster = cluster.Cluster
	// ClusterOptions configures shard count, batch size, queue depth,
	// backpressure mode, and churn-triggered re-solves.
	ClusterOptions = cluster.Options
	// ClusterTenant describes one tenant (instance + admission policy).
	ClusterTenant = cluster.TenantConfig
	// ClusterWorkload is a deterministic synthetic event schedule.
	ClusterWorkload = cluster.Workload
	// FleetSnapshot is the aggregated fleet state at a barrier.
	FleetSnapshot = cluster.FleetSnapshot
	// TenantSnapshot is one tenant's summary within a FleetSnapshot.
	TenantSnapshot = cluster.TenantSnapshot
	// AdmissionPolicy decides which users receive an arriving stream.
	AdmissionPolicy = headend.Policy

	// OfferResult is the typed outcome of Cluster.OfferStream.
	OfferResult = cluster.OfferResult
	// DepartResult is the typed outcome of Cluster.DepartStream.
	DepartResult = cluster.DepartResult
	// ChurnResult is the typed outcome of Cluster.UserLeave / UserJoin.
	ChurnResult = cluster.ChurnResult
	// ResolveResult is the typed outcome of Cluster.Resolve.
	ResolveResult = cluster.ResolveResult
	// ResolveOptions configures Cluster.Resolve (Install swaps in the
	// offline assignment make-before-break).
	ResolveOptions = cluster.ResolveOptions
	// Backpressure selects block-with-ctx vs fail-fast enqueueing.
	Backpressure = cluster.Backpressure
	// ClusterEvent is one routed tenant event; the element type of
	// Cluster.ApplyBatch's input and Cluster's streaming Submit.
	ClusterEvent = cluster.Event
	// ClusterEventType discriminates ClusterEvent (ClusterStreamArrival
	// and its siblings).
	ClusterEventType = cluster.EventType
	// EventResult is one typed per-event outcome of Cluster.ApplyBatch:
	// the StreamResult a single call would assemble, with Seq 0.
	EventResult = cluster.EventResult

	// StreamConn is a persistent pipelined ingestion session (serving
	// API v4): open with Cluster.OpenStream, Submit events without
	// waiting, Recv typed results in submission order.
	StreamConn = cluster.StreamConn
	// StreamOptions configures a StreamConn (its in-flight window
	// size; a full window parks Submit).
	StreamOptions = cluster.StreamOptions
	// StreamResult is one event's typed outcome on a StreamConn.
	StreamResult = cluster.StreamResult
)

// Fleet catalog (serving API v3): streams as first-class fleet entities
// with cross-shard reference-counted admission (see internal/catalog
// and the cluster package docs).
type (
	// CatalogID is a stable fleet-wide stream identity.
	CatalogID = catalog.ID
	// CatalogBinding maps one CatalogID to each tenant's local stream
	// index.
	CatalogBinding = catalog.Binding
	// CatalogCostModel prices a catalog admission from the cross-shard
	// reference count.
	CatalogCostModel = catalog.CostModel
	// CatalogIsolated is the default model: full price everywhere,
	// bit-identical to the pre-catalog serving path.
	CatalogIsolated = catalog.Isolated
	// CatalogSharedOrigin is the regional-CDN model: first admitting
	// tenant pays the full origin cost, later tenants the replication
	// fraction, last departure evicts the origin.
	CatalogSharedOrigin = catalog.SharedOrigin
	// CatalogOptions configures the fleet catalog on ClusterOptions.
	CatalogOptions = cluster.CatalogOptions
	// CatalogResult is the typed outcome of Cluster.OfferCatalogStream
	// and Cluster.DepartCatalogStream.
	CatalogResult = cluster.CatalogResult
	// CatalogSnapshot is the registry state embedded in FleetSnapshot
	// (per-stream reference counts, origin-cost savings).
	CatalogSnapshot = catalog.Snapshot
	// CatalogService is the registry seam CatalogOptions.Remote takes
	// (serving API v7): a fleet node plugs in a wire client dialed
	// against a catalog service process (internal/catalog/remote) in
	// place of its in-process registry.
	CatalogService = catalog.Service
)

// Durability (serving API v5): per-shard write-ahead logging and
// checkpointed recovery (see internal/wal for the record format and
// internal/cluster's wal.go for the recovery contract). Enable by
// setting ClusterOptions.WAL; reopen a crashed fleet's log with
// RecoverCluster. Cluster.Reshard changes the shard count of any live
// fleet, with or without a WAL; with one, the log rotates to the new
// writer set.
type (
	// WALOptions configures the durability log on ClusterOptions
	// (directory, sync policy, checkpoint cadence).
	WALOptions = cluster.WALOptions
	// WALSyncPolicy selects when appended records are fsynced.
	WALSyncPolicy = wal.SyncPolicy
	// WALManifest is a checkpoint: the fleet's rendered state sealed
	// into the log as a recovery verification fence.
	WALManifest = wal.Manifest
	// RecoveryReport summarizes what RecoverCluster replayed, repaired,
	// and verified.
	RecoveryReport = cluster.RecoveryReport
	// WALFS is the filesystem seam the log writes segments through;
	// WALOptions.FS overrides it (fault injection — see internal/chaos).
	WALFS = wal.FS
	// WALFile is one open segment handle behind WALFS.
	WALFile = wal.File
)

// Sync policies for WALOptions.Sync.
const (
	// WALSyncNone never fsyncs on the hot path (bounded loss on crash).
	WALSyncNone = wal.SyncNone
	// WALSyncInterval fsyncs on a background cadence.
	WALSyncInterval = wal.SyncInterval
	// WALSyncBatch is group commit: every acked event is durable (the
	// default).
	WALSyncBatch = wal.SyncBatch
)

// ErrNoWAL reports a durability operation (Checkpoint, RecoverCluster)
// on a cluster built without WALOptions.
var ErrNoWAL = cluster.ErrNoWAL

// ParseWALSyncPolicy maps the mmdserve flag spelling ("none",
// "interval", "batch", or empty for the default) to a policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	return wal.ParseSyncPolicy(s)
}

// RecoverCluster reopens the write-ahead log named by opts.WAL.Dir,
// replays it into a fresh fleet built from tenants (which must
// regenerate the same instances the crashed process served), verifies
// the replayed state against the last checkpoint manifest, repairs
// catalog references the crash tore, and goes live. The recovered
// fleet is bit-identical to one that never crashed: every event whose
// ack was delivered is replayed, per-tenant tables and catalog renders
// match exactly.
func RecoverCluster(tenants []ClusterTenant, opts ClusterOptions) (*Cluster, *RecoveryReport, error) {
	return cluster.Recover(tenants, opts)
}

// Event types for ClusterEvent (the ApplyBatch element type).
const (
	// ClusterStreamArrival offers ClusterEvent.Stream to the tenant.
	ClusterStreamArrival = cluster.EventStreamArrival
	// ClusterStreamDeparture removes a carried stream.
	ClusterStreamDeparture = cluster.EventStreamDeparture
	// ClusterUserLeave / ClusterUserJoin churn gateway ClusterEvent.User.
	ClusterUserLeave = cluster.EventUserLeave
	ClusterUserJoin  = cluster.EventUserJoin
	// ClusterResolve re-runs the offline pipeline (ClusterEvent.Install
	// installs).
	ClusterResolve = cluster.EventResolve
)

// Backpressure modes for ClusterOptions.Backpressure.
const (
	// BackpressureBlock blocks a session call until its shard queue has
	// room or the context is done (the default).
	BackpressureBlock = cluster.BackpressureBlock
	// BackpressureReject fails fast with ErrQueueFull.
	BackpressureReject = cluster.BackpressureReject
)

// Sentinel errors of the serving API; match with errors.Is.
var (
	// ErrUnknownTenant reports a tenant index outside the fleet.
	ErrUnknownTenant = cluster.ErrUnknownTenant
	// ErrQueueFull reports a full shard queue under BackpressureReject.
	ErrQueueFull = cluster.ErrQueueFull
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = cluster.ErrClosed
	// ErrCanceled reports a canceled or expired context; it also
	// matches the context package's error under errors.Is.
	ErrCanceled = cluster.ErrCanceled
	// ErrNoCatalog reports a catalog call on a cluster built without
	// CatalogOptions.
	ErrNoCatalog = cluster.ErrNoCatalog
	// ErrUnknownCatalogStream reports a CatalogID the fleet does not
	// know, or one the tenant has no binding for.
	ErrUnknownCatalogStream = cluster.ErrUnknownCatalogStream
	// ErrNotDurable reports an event that was applied but whose WAL
	// group commit failed: the ack is withheld and this error delivered
	// instead. Treat it like a crash — recover, then re-submit and let
	// seq-level dedup keep the replay exactly-once.
	ErrNotDurable = cluster.ErrNotDurable
	// ErrSessionSeq reports a session stream event numbered out of order.
	ErrSessionSeq = cluster.ErrSessionSeq
)

// IdentityCatalogBindings builds the fully overlapping catalog shape
// for same-shaped fleets: streams entries, each bound at every tenant
// under local index s, with id naming entry s.
func IdentityCatalogBindings(tenants, streams int, id func(s int) CatalogID) []CatalogBinding {
	return catalog.IdentityBindings(tenants, streams, id)
}

// NewCluster builds a sharded multi-tenant head-end cluster and starts
// its shard workers. Close it when done.
func NewCluster(tenants []ClusterTenant, opts ClusterOptions) (*Cluster, error) {
	return cluster.New(tenants, opts)
}

// NewAdmissionPolicy builds a named admission policy ("online",
// "online-unguarded", "threshold", "oracle", "static") for an instance.
func NewAdmissionPolicy(in *Instance, kind string) (AdmissionPolicy, error) {
	return headend.NewPolicyByName(in, kind)
}

// Solve runs the offline Theorem 1.1 pipeline and returns a feasible
// assignment together with a report of the run.
func Solve(in *Instance, opts Options) (*Assignment, *Report, error) {
	return core.Solve(in, opts)
}

// SolveOnline normalizes the instance and runs the Section 5 Allocate
// algorithm over all streams in index order, returning the assignment
// and the normalization (µ, γ, competitive bound). The assignment is
// guaranteed feasible when the instance satisfies the small-streams
// hypothesis; otherwise an error is returned.
func SolveOnline(in *Instance) (*Assignment, *Normalization, error) {
	return online.Solve(in)
}

// NewAllocator builds a stateful online allocator for a normalized
// instance; call Offer(stream) as streams arrive.
func NewAllocator(in *Instance, mu float64) (*Allocator, error) {
	return online.NewAllocator(in, mu)
}

// Normalize rescales the instance to satisfy the paper's equation (1)
// and computes the global skew γ.
func Normalize(in *Instance) (*Normalization, error) {
	return online.Normalize(in)
}

// CheckSmallStreams verifies the Theorem 5.4 hypothesis
// (c_i(S) ≤ B_i/log₂µ everywhere) on a normalized instance.
func CheckSmallStreams(in *Instance, mu float64) error {
	return online.CheckSmallStreams(in, mu)
}

// SolveExact returns an optimal assignment by branch and bound. It is
// exponential and intended for small instances (≲20 streams) used as
// the OPT reference in experiments.
func SolveExact(in *Instance, maxStreams int) (*Assignment, float64, error) {
	res, err := exact.Solve(in, exact.Options{MaxStreams: maxStreams})
	if err != nil {
		return nil, 0, err
	}
	return res.Assignment, res.Value, nil
}

// UpperBound returns a polynomial-time upper bound on the optimal
// utility (fractional relaxations of the server and user constraints).
func UpperBound(in *Instance) float64 {
	return bounds.UpperBound(in)
}

// Threshold runs the deployed-world baseline the paper argues against:
// utility-blind admission under safety margins. order nil means catalog
// order; margin is the fraction of each budget the policy will fill.
func Threshold(in *Instance, order []int, margin float64) (*Assignment, error) {
	return baseline.Threshold(in, order, margin)
}

// NewCableTV generates the cable-TV workload: m = 3 server budgets
// (egress Mbps, transcoding, ports), Zipf channel popularity, gateways
// with downlink and revenue-cap constraints.
func NewCableTV(cfg CableTV) (*Instance, error) { return cfg.Generate() }

// NewRandomSMD generates a random single-budget instance.
func NewRandomSMD(cfg RandomSMD) (*Instance, error) { return cfg.Generate() }

// NewRandomMMD generates a random multi-budget instance.
func NewRandomMMD(cfg RandomMMD) (*Instance, error) { return cfg.Generate() }

// NewAssignment returns an empty assignment for numUsers users.
func NewAssignment(numUsers int) *Assignment { return mmd.NewAssignment(numUsers) }

// LocalSkew returns the instance's local skew α (Section 3).
func LocalSkew(in *Instance) (float64, error) { return mmd.LocalSkew(in) }
