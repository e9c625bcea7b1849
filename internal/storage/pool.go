package storage

import (
	"fmt"
	"sort"
	"sync"
)

// The buffer pool caches page images across all tables of a store under one
// byte budget. Frames carry pin counts (a pinned frame is never evicted),
// a dirty bit (sealed pages enter the pool dirty and are written back on
// commit or on eviction, whichever comes first), and a reference bit driven
// by a clock sweep: eviction passes over a recently-used frame once, clearing
// the bit, and reclaims it on the second pass.
//
// The budget is a target, not a hard wall: when every frame is pinned, or a
// single page image exceeds the whole budget, the pool admits the page anyway
// rather than deadlocking a scan — PeakBytes in the stats records how high
// usage actually got, which is what the pool-bound tests pin down.
//
// All pool state, including the file IO of a miss or a dirty writeback, runs
// under one mutex. That serializes concurrent misses, which is the price of
// making pin/evict/writeback races impossible by construction; the executor's
// scans pin one page per partition for a short decode, so the window is small.
// A pin exists only inside withPage, which releases it however its callback
// returns, so a page cannot be left pinned.

type frameKey struct {
	table uint64
	slot  uint32
}

type frame struct {
	key   frameKey
	t     *Table
	data  []byte // full page image (header + payload)
	pins  int
	ref   bool
	dirty bool
}

// PoolStats is a snapshot of buffer-pool counters.
type PoolStats struct {
	BudgetBytes int64
	UsedBytes   int64
	PeakBytes   int64
	Hits        int64
	Misses      int64
	Evictions   int64
	Writebacks  int64
}

type pool struct {
	mu     sync.Mutex
	budget int64
	frames map[frameKey]*frame
	ring   []*frame // clock order; hand sweeps this slice
	hand   int

	used, peak                          int64
	hits, misses, evictions, writebacks int64
}

func newPool(budget int64) *pool {
	return &pool{budget: budget, frames: make(map[frameKey]*frame)}
}

// withPage pins the page described by pi, reading it from the table file on
// a miss, hands its image to fn, and unpins it when fn returns, on every path.
// fn must not retain the image.
func (p *pool) withPage(t *Table, pi pageInfo, fn func(image []byte) error) error {
	fr, err := p.pin(t, pi)
	if err != nil {
		return err
	}
	defer func() {
		p.mu.Lock()
		fr.pins--
		p.mu.Unlock()
	}()
	return fn(fr.data)
}

// pin returns the frame for pi with one more pin; only withPage calls it.
func (p *pool) pin(t *Table, pi pageInfo) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := frameKey{table: t.id, slot: pi.Slot}
	if fr, ok := p.frames[k]; ok {
		fr.pins++
		fr.ref = true
		p.hits++
		return fr, nil
	}
	p.misses++
	data := make([]byte, pi.Bytes)
	if _, err := t.f.ReadAt(data, t.st.slotOffset(pi.Slot)); err != nil {
		return nil, fmt.Errorf("storage: table %q: read page at slot %d: %w", t.name, pi.Slot, err)
	}
	fr := &frame{key: k, t: t, data: data, pins: 1, ref: true}
	if err := p.admitLocked(fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// install admits a freshly sealed page image, dirty, without pinning it.
func (p *pool) install(t *Table, pi pageInfo, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := frameKey{table: t.id, slot: pi.Slot}
	if _, ok := p.frames[k]; ok {
		return fmt.Errorf("storage: table %q: slot %d sealed twice", t.name, pi.Slot)
	}
	return p.admitLocked(&frame{key: k, t: t, data: data, dirty: true})
}

// admitLocked makes room for fr and adds it to the pool.
func (p *pool) admitLocked(fr *frame) error {
	need := int64(len(fr.data))
	for p.used+need > p.budget {
		victim := p.victimLocked()
		if victim == nil {
			break // everything pinned: admit over budget rather than deadlock
		}
		if err := p.dropFrameLocked(victim); err != nil {
			return err
		}
		p.evictions++
	}
	p.frames[fr.key] = fr
	p.ring = append(p.ring, fr)
	p.used += need
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// victimLocked runs the clock sweep: skip pinned frames, give referenced
// frames a second chance, return the first cold unpinned frame. Nil when
// every frame is pinned.
func (p *pool) victimLocked() *frame {
	if len(p.ring) == 0 {
		return nil
	}
	for swept := 0; swept < 2*len(p.ring); swept++ {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		fr := p.ring[p.hand]
		p.hand++
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return fr
	}
	return nil
}

// dropFrameLocked writes fr back if dirty and removes it from the pool.
func (p *pool) dropFrameLocked(fr *frame) error {
	if fr.dirty {
		if err := fr.t.writePageAt(fr.key.slot, fr.data); err != nil {
			return err
		}
		fr.dirty = false
		p.writebacks++
	}
	delete(p.frames, fr.key)
	for i, r := range p.ring {
		if r == fr {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			break
		}
	}
	p.used -= int64(len(fr.data))
	return nil
}

// flushTable writes back every dirty frame belonging to t, in slot order so
// the write pattern is deterministic. Frames stay cached, now clean.
func (p *pool) flushTable(t *Table) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []*frame
	for _, fr := range p.ring {
		if fr.t == t && fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].key.slot < dirty[j].key.slot })
	for _, fr := range dirty {
		if err := fr.t.writePageAt(fr.key.slot, fr.data); err != nil {
			return err
		}
		fr.dirty = false
		p.writebacks++
	}
	return nil
}

// invalidateTable discards every frame of t (dropped table: dirty pages are
// dead, not written back).
func (p *pool) invalidateTable(t *Table) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.ring[:0]
	for _, fr := range p.ring {
		if fr.t == t {
			delete(p.frames, fr.key)
			p.used -= int64(len(fr.data))
			continue
		}
		kept = append(kept, fr)
	}
	p.ring = kept
	p.hand = 0
}

func (p *pool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		BudgetBytes: p.budget,
		UsedBytes:   p.used,
		PeakBytes:   p.peak,
		Hits:        p.hits,
		Misses:      p.misses,
		Evictions:   p.evictions,
		Writebacks:  p.writebacks,
	}
}
