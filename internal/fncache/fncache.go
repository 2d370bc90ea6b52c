package fncache

import (
	"sort"
	"time"

	"repro/internal/consistency"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Key identifies a cached object. It is the object ID's underlying integer
// so the cache stays below the state layer's type surface; core converts at
// the boundary. Node identifiers are plain ints for the same reason.
type Key uint64

// DefaultLeaseTTL bounds how long a lease entry may be served without
// revalidation when the deployment does not choose its own TTL.
const DefaultLeaseTTL = 250 * time.Millisecond

// Config tunes a deployment's colocated caches. The zero value is never
// used directly: a nil *Config on core.Options means "no cache" and every
// hook in the data path stays inert.
type Config struct {
	// LeaseTTL is the virtual-time lease duration for linearizable
	// entries (default DefaultLeaseTTL). Invalidations, not expiry, carry
	// the coherence guarantee; the TTL is a backstop that bounds how long
	// a partitioned node can serve a frozen view.
	LeaseTTL sim.Duration
	// MaxEntriesPerNode caps each node's lease cache (0 = unbounded).
	// Eviction drops the smallest key first — deterministic, no clock.
	MaxEntriesPerNode int
}

// leaseEntry is one node's cached copy of a linearizable object.
type leaseEntry struct {
	data    []byte
	stamp   consistency.Stamp
	epoch   uint64
	expires sim.Time
}

// dirEntry is the per-key coherence directory: the lease epoch, whether a
// write is in flight, and which nodes hold entries (the invalidation
// fan-out set).
type dirEntry struct {
	epoch   uint64
	writing bool
	holders map[int]bool
}

// latticeReplica is one node's local lattice replica for an eventual key.
type latticeReplica struct {
	val Lattice
	// syncStamp is the store stamp last observed by a flush or pull; reads
	// served while the store has moved past it count as observed-stale.
	syncStamp consistency.Stamp
	dirty     bool
}

// Stats snapshots the cache counters (experiments, facade).
type Stats struct {
	Hits, Misses      int64
	Invalidations     int64
	StaleLeaseServes  int64
	LatticeMerges     int64
	LatticeStaleReads int64
}

// Cache is the deployment-wide directory of per-node colocated caches.
// It does no scheduling and sleeps for nothing itself: core charges the
// modelled DRAM and network costs at its call sites, so a disabled cache
// is exactly zero virtual-time overhead.
type Cache struct {
	env *sim.Env
	cfg Config

	lease map[int]map[Key]*leaseEntry
	dir   map[Key]*dirEntry
	lat   map[int]map[Key]*latticeReplica
	// latKeys tracks every key ever cached as a lattice, for the
	// convergence audit's deterministic sweep.
	latKeys map[Key]bool

	// Counters, registered in the deployment's metric registry so the
	// telemetry plane samples hit/miss/staleness series like any other.
	Hits              *metrics.Counter
	Misses            *metrics.Counter
	Invalidations     *metrics.Counter
	StaleLeaseServes  *metrics.Counter
	LatticeMerges     *metrics.Counter
	LatticeStaleReads *metrics.Counter
}

// New builds a cache and registers its counters in reg (which may be nil
// for tests).
func New(env *sim.Env, cfg Config, reg *trace.Registry) *Cache {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Cache{
		env:     env,
		cfg:     cfg,
		lease:   make(map[int]map[Key]*leaseEntry),
		dir:     make(map[Key]*dirEntry),
		lat:     make(map[int]map[Key]*latticeReplica),
		latKeys: make(map[Key]bool),

		Hits:              metrics.NewCounter("fncache_hits"),
		Misses:            metrics.NewCounter("fncache_misses"),
		Invalidations:     metrics.NewCounter("fncache_invalidations"),
		StaleLeaseServes:  metrics.NewCounter("fncache_stale_serves"),
		LatticeMerges:     metrics.NewCounter("fncache_lattice_merges"),
		LatticeStaleReads: metrics.NewCounter("fncache_stale_reads"),
	}
	if reg != nil {
		reg.Register(c.Hits)
		reg.Register(c.Misses)
		reg.Register(c.Invalidations)
		reg.Register(c.StaleLeaseServes)
		reg.Register(c.LatticeMerges)
		reg.Register(c.LatticeStaleReads)
	}
	return c
}

// Snapshot returns the current counter values.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:              c.Hits.Value(),
		Misses:            c.Misses.Value(),
		Invalidations:     c.Invalidations.Value(),
		StaleLeaseServes:  c.StaleLeaseServes.Value(),
		LatticeMerges:     c.LatticeMerges.Value(),
		LatticeStaleReads: c.LatticeStaleReads.Value(),
	}
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (c *Cache) dirFor(key Key) *dirEntry {
	d, ok := c.dir[key]
	if !ok {
		d = &dirEntry{holders: make(map[int]bool)}
		c.dir[key] = d
	}
	return d
}

func (c *Cache) nodeLease(node int) map[Key]*leaseEntry {
	m, ok := c.lease[node]
	if !ok {
		m = make(map[Key]*leaseEntry)
		c.lease[node] = m
	}
	return m
}

// ---------------------------------------------------------------------------
// Lease coherence (linearizable objects)

// Epoch returns the key's current lease epoch. A reader records it before
// the authoritative read; LeaseFill refuses the entry if a write bumped the
// epoch in between.
func (c *Cache) Epoch(key Key) uint64 { return c.dirFor(key).epoch }

// LeaseGet serves a linearizable read from the node's cache. A miss (no
// entry, stale epoch, expired TTL, or a write in flight) drops the entry
// and returns ok=false; the caller then reads the store and LeaseFills.
func (c *Cache) LeaseGet(node int, key Key, now sim.Time) (data []byte, stamp consistency.Stamp, ok bool) {
	d := c.dirFor(key)
	entries := c.nodeLease(node)
	e, have := entries[key]
	if !have {
		c.Misses.Inc()
		return nil, consistency.Stamp{}, false
	}
	if e.epoch != d.epoch || d.writing || now > e.expires {
		delete(entries, key)
		delete(d.holders, node)
		c.Misses.Inc()
		return nil, consistency.Stamp{}, false
	}
	c.Hits.Inc()
	return e.data, e.stamp, true
}

// LeaseFill installs a freshly read entry, validated against the epoch the
// reader observed before the authoritative read: if a write began since
// (epoch moved or is in flight), the fill is dropped — the reader keeps its
// correct data, the cache just declines to remember it. The entry holds data
// itself, not a copy: it must be a snapshot nobody writes again (the store
// object's Snapshot, which the object copies before it writes).
func (c *Cache) LeaseFill(node int, key Key, data []byte, stamp consistency.Stamp, epochAtRead uint64, now sim.Time) {
	d := c.dirFor(key)
	if d.epoch != epochAtRead || d.writing {
		return
	}
	entries := c.nodeLease(node)
	if c.cfg.MaxEntriesPerNode > 0 && len(entries) >= c.cfg.MaxEntriesPerNode {
		if _, have := entries[key]; !have {
			c.evictOne(node, entries)
		}
	}
	entries[key] = &leaseEntry{
		data:    data,
		stamp:   stamp,
		epoch:   d.epoch,
		expires: now.Add(c.cfg.LeaseTTL),
	}
	d.holders[node] = true
}

// evictOne drops the smallest cached key — a deterministic victim choice
// that needs neither a clock nor randomness.
func (c *Cache) evictOne(node int, entries map[Key]*leaseEntry) {
	victim, any := Key(0), false
	for k := range entries {
		if !any || k < victim {
			victim, any = k, true
		}
	}
	if any {
		delete(entries, victim)
		delete(c.dirFor(victim).holders, node)
	}
}

// BeginWrite opens a write on key: the epoch advances, every holder's entry
// is dropped, and fills are refused until EndWrite. It returns the nodes
// that held entries, in sorted order, so the caller can charge the
// invalidation fan-out's network cost.
func (c *Cache) BeginWrite(key Key) []int {
	d := c.dirFor(key)
	d.epoch++
	d.writing = true
	holders := make([]int, 0, len(d.holders))
	for n := range d.holders {
		holders = append(holders, n)
		delete(c.nodeLease(n), key)
	}
	sort.Ints(holders)
	d.holders = make(map[int]bool)
	if len(holders) > 0 {
		c.Invalidations.Add(int64(len(holders)))
	}
	return holders
}

// EndWrite closes a write opened by BeginWrite.
func (c *Cache) EndWrite(key Key) { c.dirFor(key).writing = false }

// Invalidate drops key everywhere and advances its epoch (GC sweeps,
// namespace mirrors). Returns the number of entries dropped.
func (c *Cache) Invalidate(keys ...Key) int {
	dropped := 0
	for _, key := range keys {
		d, ok := c.dir[key]
		if ok {
			d.epoch++
			for n := range d.holders {
				delete(c.nodeLease(n), key)
				dropped++
			}
			d.holders = make(map[int]bool)
		}
		for _, reps := range c.lat {
			delete(reps, key)
		}
		delete(c.latKeys, key)
	}
	if dropped > 0 {
		c.Invalidations.Add(int64(dropped))
	}
	return dropped
}

// DropNode discards every entry and lattice replica a node holds (machine
// failure: the executor's DRAM is gone).
func (c *Cache) DropNode(node int) {
	for key := range c.lease[node] {
		delete(c.dirFor(key).holders, node)
	}
	delete(c.lease, node)
	delete(c.lat, node)
}

// ---------------------------------------------------------------------------
// Lattice coherence (eventual objects)

func (c *Cache) nodeLat(node int) map[Key]*latticeReplica {
	m, ok := c.lat[node]
	if !ok {
		m = make(map[Key]*latticeReplica)
		c.lat[node] = m
	}
	return m
}

// LatticeGet returns the node's local replica. ok=false means cold: the
// caller pulls from the store and calls LatticePull.
func (c *Cache) LatticeGet(node int, key Key) (Lattice, bool) {
	r, ok := c.nodeLat(node)[key]
	if !ok {
		c.Misses.Inc()
		return nil, false
	}
	c.Hits.Inc()
	return r.val, true
}

// LatticeMergeLocal merges delta into the node's replica and marks it
// dirty for the next flush. The replica is created if absent.
func (c *Cache) LatticeMergeLocal(node int, key Key, delta Lattice) {
	reps := c.nodeLat(node)
	r, ok := reps[key]
	if !ok {
		r = &latticeReplica{val: delta}
		reps[key] = r
	} else {
		r.val = r.val.Merge(delta)
	}
	r.dirty = true
	c.latKeys[key] = true
	c.LatticeMerges.Inc()
}

// LatticePull merges the store's value (read at stamp) into the node's
// replica and clears observed staleness up to that stamp.
func (c *Cache) LatticePull(node int, key Key, storeVal Lattice, stamp consistency.Stamp) {
	reps := c.nodeLat(node)
	r, ok := reps[key]
	if !ok {
		reps[key] = &latticeReplica{val: storeVal, syncStamp: stamp}
		c.latKeys[key] = true
		return
	}
	r.val = r.val.Merge(storeVal)
	r.syncStamp = stamp
	c.LatticeMerges.Inc()
}

// LatticeDirty reports whether the node's replica has unflushed local
// updates; Flushed clears the flag and records the store stamp the flush
// produced.
func (c *Cache) LatticeDirty(node int, key Key) bool {
	r, ok := c.nodeLat(node)[key]
	return ok && r.dirty
}

// Flushed marks the node's replica clean as of the given store stamp.
func (c *Cache) Flushed(node int, key Key, stamp consistency.Stamp) {
	if r, ok := c.nodeLat(node)[key]; ok {
		r.dirty = false
		r.syncStamp = stamp
	}
}

// NoteLatticeStale records a read served while the store held a newer
// stamp than the replica's last sync — the observed-staleness metric.
func (c *Cache) NoteLatticeStale() { c.LatticeStaleReads.Inc() }

// SyncStamp returns the stamp of the node replica's last flush or pull.
func (c *Cache) SyncStamp(node int, key Key) consistency.Stamp {
	if r, ok := c.nodeLat(node)[key]; ok {
		return r.syncStamp
	}
	return consistency.Stamp{}
}

// LatticeKeys returns every key cached as a lattice anywhere, sorted.
func (c *Cache) LatticeKeys() []Key {
	out := make([]Key, 0, len(c.latKeys))
	for k := range c.latKeys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LatticeNodes returns the nodes holding a replica of key, sorted.
func (c *Cache) LatticeNodes(key Key) []int {
	var out []int
	for n, reps := range c.lat {
		if _, ok := reps[key]; ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// NodeValue returns the encoded replica a node holds for key (convergence
// audit), or nil.
func (c *Cache) NodeValue(node int, key Key) []byte {
	if r, ok := c.nodeLat(node)[key]; ok {
		return r.val.Encode()
	}
	return nil
}

// InstallPulled replaces a node's replica wholesale after a quiescent pull
// (post-audit convergence): every replica adopts the merged store value.
func (c *Cache) InstallPulled(node int, key Key, v Lattice, stamp consistency.Stamp) {
	c.nodeLat(node)[key] = &latticeReplica{val: v, syncStamp: stamp}
}
