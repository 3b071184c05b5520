package servecache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"mixen/internal/obs"
)

// Outcome reports how GetOrCompute satisfied a request.
type Outcome int

const (
	// Hit: the value came straight from a fresh cache entry.
	Hit Outcome = iota
	// Miss: nobody had the value cached or in flight; this caller started
	// its computation.
	Miss
	// Collapsed: the caller waited on another goroutine's in-flight
	// computation of the same key (singleflight).
	Collapsed
)

// String implements fmt.Stringer for log/trace labels.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Collapsed:
		return "collapsed"
	}
	return "unknown"
}

// entry is one cached value plus its accounting state.
type entry struct {
	key     string
	val     any
	size    int64
	expires time.Time // zero = no expiry
}

// flight is one key's in-progress computation, which callers wait on.
type flight struct {
	done chan struct{}
	val  any
	err  error
	lead *lead
}

// lead is one leading call's computation: the flights it opened (one per
// key it missed, completed together) and the context compute runs under.
// That context carries the leading caller's values but not its
// cancellation: it is cancelled when the last caller still waiting on any
// of the flights has given up — the Batcher's rule for a fused run — so a
// leader with a short deadline cannot fail a collapsed caller that has
// time left, and work nobody waits for stops.
type lead struct {
	ctx     context.Context
	cancel  context.CancelFunc
	keys    []string
	flights []*flight
	waiters int // registrations on its flights not yet withdrawn; guarded by Cache.mu
}

// Stats is a point-in-time snapshot of the cache, surfaced through
// /healthz by the server.
type Stats struct {
	Entries            int   `json:"entries"`
	SizeBytes          int64 `json:"size_bytes"`
	MaxBytes           int64 `json:"max_bytes"`
	Epoch              int64 `json:"epoch"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Collapsed          int64 `json:"collapsed"`
	Expired            int64 `json:"expired"`
	Evictions          int64 `json:"evictions"`
	EpochInvalidations int64 `json:"epoch_invalidations"`
}

// Cache is a size-bounded LRU with TTL expiry, epoch invalidation and
// singleflight computation collapsing. Safe for concurrent use.
//
// maxBytes bounds the sum of entry sizes (as reported by the caller's
// compute/Put size argument). With maxBytes <= 0 nothing is ever
// stored, but GetOrCompute still collapses concurrent identical
// computations — a singleflight-only degenerate mode.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // -> *entry
	lru     *list.List               // front = most recently used
	flights map[string]*flight

	maxBytes int64
	size     int64
	ttl      time.Duration // <= 0: entries never expire
	epoch    int64
	now      func() time.Time // injectable for TTL tests

	// Local tallies (mu-guarded) back Stats; the obs instruments mirror
	// them into /metrics and are nil-safe no-ops without a registry.
	nHits, nMisses, nCollapsed    int64
	nExpired, nEvicted, nEpochInv int64

	hits, misses, collapsed *obs.Counter
	expired, evicted        *obs.Counter
	epochInv                *obs.Counter
	entriesGauge, sizeGauge *obs.Gauge
	epochGauge              *obs.Gauge
}

// New builds a Cache bounded to maxBytes with per-entry lifetime ttl
// (ttl <= 0 disables expiry). Instruments register under "<name>." on c
// (pass nil or obs.Nop{} to discard); name defaults to "servecache",
// letting one process run several caches with separate metrics.
func New(name string, maxBytes int64, ttl time.Duration, c obs.Collector) *Cache {
	if name == "" {
		name = "servecache"
	}
	col := obs.Default(c)
	return &Cache{
		entries:      map[string]*list.Element{},
		lru:          list.New(),
		flights:      map[string]*flight{},
		maxBytes:     maxBytes,
		ttl:          ttl,
		now:          time.Now,
		hits:         col.Counter(name + ".hits"),
		misses:       col.Counter(name + ".misses"),
		collapsed:    col.Counter(name + ".collapsed"),
		expired:      col.Counter(name + ".expired"),
		evicted:      col.Counter(name + ".evictions"),
		epochInv:     col.Counter(name + ".epoch_invalidations"),
		entriesGauge: col.Gauge(name + ".entries"),
		sizeGauge:    col.Gauge(name + ".size_bytes"),
		epochGauge:   col.Gauge(name + ".epoch"),
	}
}

// GetOrCompute returns the cached value for key, or runs compute to
// produce it. Concurrent calls for the same key collapse onto one
// compute invocation: exactly one caller starts compute, every caller
// blocks until it finishes (or their own ctx is done) and shares its
// result. compute returns the value, its size in bytes for LRU
// accounting, and an error; an error — or a panic, reported as one — is
// propagated to every waiting caller and nothing is cached. compute runs
// under a context of its own, cancelled only once every caller has given
// up (see lead).
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (any, int64, error)) (any, Outcome, error) {
	var ld *lead
	c.mu.Lock()
	v, f, outcome := c.joinLocked(ctx, key, &ld)
	c.mu.Unlock()
	if f == nil {
		return v, Hit, nil
	}
	if ld != nil {
		go c.run(ld, func(ctx context.Context) ([]any, []int64, error) {
			v, size, err := compute(ctx)
			return []any{v}, []int64{size}, err
		})
	}
	vals := make([]any, 1)
	if err := c.await(ctx, []*flight{f}, vals); err != nil {
		return nil, outcome, err
	}
	return vals[0], outcome, nil
}

// GetOrComputeAll is GetOrCompute for the keys of one logical request:
// all are resolved under one lock hold, and the ones nobody has cached or
// in flight — missing, as indices into keys, ascending — are computed by
// ONE compute call, so the caller can execute them together. compute
// returns one value and one size per missing index, in that order; its
// error fails all of them. The call returns once every key has a value,
// or with the first error.
func (c *Cache) GetOrComputeAll(ctx context.Context, keys []string, compute func(ctx context.Context, missing []int) ([]any, []int64, error)) ([]any, []Outcome, error) {
	vals := make([]any, len(keys))
	outcomes := make([]Outcome, len(keys))
	flights := make([]*flight, len(keys))
	var (
		ld      *lead
		missing []int
	)
	c.mu.Lock()
	for i, key := range keys {
		vals[i], flights[i], outcomes[i] = c.joinLocked(ctx, key, &ld)
		if outcomes[i] == Miss {
			missing = append(missing, i)
		}
	}
	c.mu.Unlock()
	if ld != nil {
		go c.run(ld, func(ctx context.Context) ([]any, []int64, error) { return compute(ctx, missing) })
	}
	if err := c.await(ctx, flights, vals); err != nil {
		return nil, outcomes, err
	}
	return vals, outcomes, nil
}

// joinLocked resolves key for one caller: a fresh entry is a Hit (no
// flight); a computation in flight is joined (Collapsed); otherwise the
// caller opens a flight under its lead *ld, created on first use (Miss).
// Caller holds mu.
func (c *Cache) joinLocked(ctx context.Context, key string, ld **lead) (any, *flight, Outcome) {
	if v, ok := c.getLocked(key); ok {
		c.nHits++
		c.hits.Inc()
		return v, nil, Hit
	}
	f, ok := c.flights[key]
	if ok {
		c.nCollapsed++
		c.collapsed.Inc()
		f.lead.waiters++
		return nil, f, Collapsed
	}
	if *ld == nil {
		lctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		*ld = &lead{ctx: lctx, cancel: cancel}
	}
	f = &flight{done: make(chan struct{}), lead: *ld}
	(*ld).keys = append((*ld).keys, key)
	(*ld).flights = append((*ld).flights, f)
	(*ld).waiters++
	c.flights[key] = f
	c.nMisses++
	c.misses.Inc()
	return nil, f, Miss
}

// run computes ld's keys and completes its flights; it runs on a goroutine
// of its own, so that the leading caller can give up like any other waiter
// while the rest still get the value. Whatever compute does — return, fail,
// panic — every flight leaves the map and has done closed, so no waiter
// hangs and a later call recomputes.
func (c *Cache) run(ld *lead, compute func(context.Context) ([]any, []int64, error)) {
	var (
		vals  []any
		sizes []int64
		err   error
	)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("servecache: compute panicked: %v", r)
		} else if err == nil && (len(vals) != len(ld.keys) || len(sizes) != len(ld.keys)) {
			err = fmt.Errorf("servecache: compute returned %d values and %d sizes for %d keys", len(vals), len(sizes), len(ld.keys))
		}
		c.mu.Lock()
		for i, f := range ld.flights {
			delete(c.flights, ld.keys[i])
			if f.err = err; err == nil {
				f.val = vals[i]
				c.putLocked(ld.keys[i], vals[i], sizes[i])
			}
			close(f.done)
		}
		c.mu.Unlock()
		ld.cancel()
	}()
	vals, sizes, err = compute(ld.ctx)
}

// await fills vals[i] from flights[i] (nil: already resolved) as they
// complete. On the first failed flight, or when ctx is done, the caller
// withdraws from all of them and the error is returned.
func (c *Cache) await(ctx context.Context, flights []*flight, vals []any) error {
	for i, f := range flights {
		if f == nil {
			continue
		}
		var err error
		select {
		case <-f.done:
			vals[i], err = f.val, f.err
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			c.leave(flights)
			return err
		}
	}
	return nil
}

// leave withdraws one caller's registrations; a lead nobody waits on any
// more has its computation cancelled.
func (c *Cache) leave(flights []*flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range flights {
		if f == nil {
			continue
		}
		if f.lead.waiters--; f.lead.waiters == 0 {
			f.lead.cancel()
		}
	}
}

// Get returns the cached value for key if present and fresh.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.getLocked(key)
	if ok {
		c.nHits++
		c.hits.Inc()
	}
	return v, ok
}

// Put inserts (or replaces) key with val of the given byte size.
func (c *Cache) Put(key string, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, size)
}

// Invalidate drops key if present.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
}

// SetEpoch advances the cache to a new graph epoch, dropping every
// entry. Keys embed the epoch (Params.Epoch) so stale entries were
// already unreachable; the purge reclaims their memory immediately and
// counts them as epoch invalidations. A no-op when the epoch is
// unchanged.
func (c *Cache) SetEpoch(epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch == c.epoch {
		return
	}
	c.epoch = epoch
	c.epochGauge.Set(epoch)
	n := int64(len(c.entries))
	c.nEpochInv += n
	c.epochInv.Add(n)
	c.entries = map[string]*list.Element{}
	c.lru.Init()
	c.size = 0
	c.entriesGauge.Set(0)
	c.sizeGauge.Set(0)
}

// Epoch returns the cache's current graph epoch.
func (c *Cache) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SizeBytes returns the accounted size of all live entries.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats snapshots the cache counters for /healthz.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:            len(c.entries),
		SizeBytes:          c.size,
		MaxBytes:           c.maxBytes,
		Epoch:              c.epoch,
		Hits:               c.nHits,
		Misses:             c.nMisses,
		Collapsed:          c.nCollapsed,
		Expired:            c.nExpired,
		Evictions:          c.nEvicted,
		EpochInvalidations: c.nEpochInv,
	}
}

// setNow swaps the clock (TTL tests).
func (c *Cache) setNow(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// getLocked returns key's value if present and fresh, expiring it
// lazily otherwise. Caller holds mu.
func (c *Cache) getLocked(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.nExpired++
		c.expired.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	return e.val, true
}

// putLocked inserts or replaces key, then evicts LRU entries until the
// size bound holds. Values larger than the whole cache are not stored.
// Caller holds mu.
func (c *Cache) putLocked(key string, val any, size int64) {
	if size < 0 {
		size = 0
	}
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	if c.maxBytes <= 0 || size > c.maxBytes {
		return
	}
	e := &entry{key: key, val: val, size: size}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.entries[key] = c.lru.PushFront(e)
	c.size += size
	for c.size > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.nEvicted++
		c.evicted.Inc()
	}
	c.entriesGauge.Set(int64(len(c.entries)))
	c.sizeGauge.Set(c.size)
}

// removeLocked unlinks el from the LRU and the index. Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.size -= e.size
	c.entriesGauge.Set(int64(len(c.entries)))
	c.sizeGauge.Set(c.size)
}
