package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if absent).
	Dir string
	// Sync is the durability policy every appender runs under.
	Sync SyncPolicy
	// SyncInterval is the background fsync cadence under SyncInterval
	// (default 50ms).
	SyncInterval time.Duration
	// FS opens segment files. Nil means the real filesystem (OSFS);
	// tests inject fault-scripted filesystems here (internal/chaos).
	FS FS
}

// Manifest is one checkpoint: written at a quiesced barrier, it fences
// the log (every record with Seq <= Seq is in generations <= Gen) and
// carries the fleet's rendered state at the fence as a recovery-time
// verification artifact. Recovery replays up to the fence, renders,
// and compares — a divergence is corruption and fails loudly.
//
// A manifest does not permit truncating history: tenant policy state
// is an order-sensitive accumulation (by design — see ARCHITECTURE.md),
// so recovery always replays from genesis and uses manifests as
// verification waypoints and segment-rotation points.
type Manifest struct {
	// Gen is the generation this manifest seals.
	Gen int `json:"gen"`
	// Seq is the fence: the global sequence number at the quiesced
	// barrier.
	Seq uint64 `json:"seq"`
	// Shards is the shard count writing the *next* generation (it
	// changes across a reshard checkpoint).
	Shards int `json:"shards"`
	// Tenants is the tenant count (a recovery sanity check).
	Tenants int `json:"tenants"`
	// Reason records why the checkpoint was taken ("checkpoint",
	// "reshard", "recovered", "close").
	Reason string `json:"reason"`
	// TenantsRender and CatalogRender are the quiesced fleet state:
	// FleetSnapshot.RenderTenants() and the catalog render ("" with no
	// catalog). Byte-compared by recovery verification.
	TenantsRender string `json:"tenants_render"`
	CatalogRender string `json:"catalog_render,omitempty"`
}

// Replay is everything a reader needs to rebuild the fleet.
type Replay struct {
	// Records holds every record in the log, sorted by Seq — the global
	// apply order. Per-tenant and registry orders are subsequences.
	Records []Record
	// Manifests holds every checkpoint manifest in generation order.
	Manifests []Manifest
	// MaxSeq is the highest sequence number seen.
	MaxSeq uint64
	// Truncated maps segment files to the byte offset their torn tail
	// was truncated at (recovery mode only).
	Truncated map[string]int64
}

// LastManifest returns the newest checkpoint manifest, or nil.
func (r *Replay) LastManifest() *Manifest {
	if len(r.Manifests) == 0 {
		return nil
	}
	return &r.Manifests[len(r.Manifests)-1]
}

// A Log is one durability directory: segment files per (generation,
// writer) plus checkpoint manifests. Open loads the directory state;
// Begin (or Rotate) opens the active generation's appenders. All
// methods except Appender handles are for the cluster's control plane
// (recovery, checkpoint, reshard), not the hot path.
type Log struct {
	opts Options

	mu        sync.Mutex
	gen       int // active generation (0 = no active appenders yet)
	lastGen   int // highest generation present on disk
	appenders map[string]*Appender
	flusher   *flusher // shared commit-flush rounds (SyncBatch)
	syncStop  chan struct{}
	syncDone  chan struct{}
}

// Open loads (or creates) a log directory. No appenders are active
// until Begin or Rotate; ReadAll may be called first to replay
// existing state.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty dir")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, appenders: make(map[string]*Appender)}
	segs, mans, err := l.scan()
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if s.gen > l.lastGen {
			l.lastGen = s.gen
		}
	}
	for _, m := range mans {
		if m.gen > l.lastGen {
			l.lastGen = m.gen
		}
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Sync returns the configured durability policy.
func (l *Log) Sync() SyncPolicy { return l.opts.Sync }

// Empty reports whether the directory holds no segments or manifests.
func (l *Log) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastGen == 0 && l.gen == 0
}

type segFile struct {
	gen  int
	name string // writer name
	path string
}

type manFile struct {
	gen  int
	path string
}

// scan indexes the directory's segment and manifest files.
func (l *Log) scan() ([]segFile, []manFile, error) {
	ents, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segFile
	var mans []manFile
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".ndjson"):
			body := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".ndjson")
			gen, writer, ok := strings.Cut(body, "-")
			g, err := parseGen(gen)
			if !ok || err != nil || writer == "" {
				return nil, nil, fmt.Errorf("wal: unrecognized segment file %q", name)
			}
			segs = append(segs, segFile{gen: g, name: writer, path: filepath.Join(l.opts.Dir, name)})
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".json"):
			body := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".json")
			g, err := parseGen(body)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: unrecognized manifest file %q", name)
			}
			mans = append(mans, manFile{gen: g, path: filepath.Join(l.opts.Dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].gen != segs[j].gen {
			return segs[i].gen < segs[j].gen
		}
		return segs[i].name < segs[j].name
	})
	sort.Slice(mans, func(i, j int) bool { return mans[i].gen < mans[j].gen })
	return segs, mans, nil
}

// parseGen parses a segment/manifest generation token: digits only,
// fully consumed, positive. (A scanf width would silently truncate a
// 7-digit generation to its first 6, colliding with an earlier one.)
func parseGen(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("wal: bad generation %q", s)
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("wal: bad generation %q", s)
		}
	}
	g, err := strconv.Atoi(s)
	if err != nil || g <= 0 {
		return 0, fmt.Errorf("wal: bad generation %q", s)
	}
	return g, nil
}

// ReadAll parses every segment and manifest into one seq-ordered
// Replay. With truncate true (recovery from a crash), a torn final
// line in a writer's newest segment is physically truncated away; with
// truncate false (a live bulk read during resharding), an unterminated
// tail is simply not returned yet — the writer is still appending.
// A torn tail anywhere but a writer's newest segment, or a malformed
// line mid-file, is a hard error either way.
func (l *Log) ReadAll(truncate bool) (*Replay, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, mans, err := l.scan()
	if err != nil {
		return nil, err
	}
	// Newest segment per writer: the only place a torn tail is legal.
	newest := make(map[string]int)
	for _, s := range segs {
		if s.gen > newest[s.name] {
			newest[s.name] = s.gen
		}
	}
	out := &Replay{Truncated: make(map[string]int64)}
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		sd, err := parseSegment(data)
		if err != nil {
			return nil, fmt.Errorf("wal: %s: %w", filepath.Base(s.path), err)
		}
		if sd.tornAt >= 0 {
			if s.gen != newest[s.name] {
				return nil, fmt.Errorf("wal: %s: torn tail in a sealed (non-final) segment", filepath.Base(s.path))
			}
			if truncate {
				if err := os.Truncate(s.path, sd.tornAt); err != nil {
					return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				out.Truncated[filepath.Base(s.path)] = sd.tornAt
			}
		}
		out.Records = append(out.Records, sd.records...)
	}
	sort.SliceStable(out.Records, func(i, j int) bool { return out.Records[i].Seq < out.Records[j].Seq })
	for _, r := range out.Records {
		if r.Seq > out.MaxSeq {
			out.MaxSeq = r.Seq
		}
	}
	for _, m := range mans {
		data, err := os.ReadFile(m.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("wal: %s: %w", filepath.Base(m.path), err)
		}
		out.Manifests = append(out.Manifests, man)
	}
	return out, nil
}

// Begin opens the next generation's appenders, one per writer name.
// Called once after Open (fresh log) or after recovery replay; Rotate
// is the checkpoint path that seals and reopens in one step.
func (l *Log) Begin(names []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.beginLocked(names)
}

func (l *Log) beginLocked(names []string) error {
	if l.gen != 0 {
		return fmt.Errorf("wal: appenders already active (gen %d)", l.gen)
	}
	gen := l.lastGen + 1
	if l.opts.Sync == SyncBatch && l.flusher == nil {
		l.flusher = newFlusher()
	}
	for _, name := range names {
		path := filepath.Join(l.opts.Dir, fmt.Sprintf("seg-%06d-%s.ndjson", gen, name))
		f, err := l.opts.FS.OpenSegment(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		a := &Appender{name: name, f: f, fl: l.flusher, sync: l.opts.Sync}
		// Pay the first chunk's zero-fill now, at open, so the first
		// group commit already runs metadata-free (see preallocChunk).
		a.mu.Lock()
		a.preallocLocked(1)
		a.mu.Unlock()
		if a.err != nil {
			return a.err
		}
		l.appenders[name] = a
	}
	l.gen, l.lastGen = gen, gen
	if l.opts.Sync == SyncInterval && l.syncStop == nil {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop(l.syncStop, l.syncDone)
	}
	return nil
}

// Appender returns the active appender for a writer name (nil when the
// generation has no such writer).
func (l *Log) Appender(name string) *Appender {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appenders[name]
}

// FlushAll drains every active appender's buffer to the kernel, so a
// concurrent ReadAll(false) observes everything appended so far (the
// resharding bulk read).
func (l *Log) FlushAll() error {
	l.mu.Lock()
	apps := l.active()
	l.mu.Unlock()
	var first error
	for _, a := range apps {
		if err := a.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (l *Log) active() []*Appender {
	out := make([]*Appender, 0, len(l.appenders))
	for _, a := range l.appenders {
		out = append(out, a)
	}
	return out
}

// Rotate is the checkpoint step, called only at a quiesced barrier (no
// writer is appending): it seals the active generation's segments,
// writes the manifest for it (filling m.Gen), and opens the next
// generation for the given writer names (which may differ from the
// previous generation's — a reshard changes the shard count).
func (l *Log) Rotate(m *Manifest, names []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen == 0 {
		return fmt.Errorf("wal: no active generation to rotate")
	}
	var first error
	for _, a := range l.appenders {
		if err := a.seal(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	m.Gen = l.gen
	if err := l.writeManifestLocked(*m); err != nil {
		return err
	}
	l.appenders = make(map[string]*Appender)
	l.gen = 0
	return l.beginLocked(names)
}

func (l *Log) writeManifestLocked(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("ckpt-%06d.json", m.Gen))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	return nil
}

// Close seals the active generation (flush + fsync + close) and writes
// a closing manifest when one is supplied. Idempotent.
func (l *Log) Close(m *Manifest) error {
	// Stop the interval syncer without holding l.mu: a tick that is
	// already waiting for the lock must get it before the syncer can
	// see stop and exit. Begin cannot start another syncer meanwhile,
	// since the appenders are still active.
	l.mu.Lock()
	stop, done := l.syncStop, l.syncDone
	l.syncStop, l.syncDone = nil, nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flusher != nil {
		// Committers are drained before the log closes, so no Flush is
		// in flight; stop the round loop before sealing.
		l.flusher.Close()
		l.flusher = nil
	}
	var first error
	for _, a := range l.appenders {
		if err := a.seal(); err != nil && first == nil {
			first = err
		}
	}
	if l.gen != 0 && m != nil && first == nil {
		m.Gen = l.gen
		first = l.writeManifestLocked(*m)
	}
	l.appenders = make(map[string]*Appender)
	l.gen = 0
	return first
}

// syncLoop is the SyncInterval background syncer.
func (l *Log) syncLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l.mu.Lock()
			apps := l.active()
			l.mu.Unlock()
			for _, a := range apps {
				_ = a.flushAndSync()
			}
		}
	}
}

// ShardWriter returns the canonical writer name for shard s.
func ShardWriter(s int) string { return fmt.Sprintf("s%d", s) }

// CatalogWriter is the registry's writer name.
const CatalogWriter = "catalog"

// ShardWriters returns the writer-name set for n shards plus the
// catalog plane (withCatalog).
func ShardWriters(n int, withCatalog bool) []string {
	names := make([]string, 0, n+1)
	for s := 0; s < n; s++ {
		names = append(names, ShardWriter(s))
	}
	if withCatalog {
		names = append(names, CatalogWriter)
	}
	return names
}
