package cache

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gvfs/internal/backend"
)

// Cache-index persistence. The paper's proxy caches are long-lived —
// "the cached data of memory state and virtual disk from previous
// clones can greatly expedite new clonings" — and a proxy restart
// should not discard gigabytes of cached blocks. SaveIndex writes the
// in-memory tags beside the bank files; a cache created over the same
// directory with the same geometry reloads them and resumes warm.
//
// Dirty frames are deliberately NOT persisted as dirty: a proxy must
// flush before saving (enforced below). Crash-time dirty state is the
// dirty-block journal's job (journal.go/recover.go) — the snapshot
// only ever describes clean, committed frames, and since version 2 it
// carries each frame's CRC32C so a reloaded frame is verified before
// it is served.
//
// The snapshot itself is written crash-safely: temp file, fsync,
// rename, directory fsync. A snapshot that is nonetheless unreadable
// (torn by an older writer, truncated, wrong version) downgrades to a
// cold start instead of keeping the proxy down.

// indexFileName is the tag snapshot file inside the cache directory.
const indexFileName = "index.json"

// indexVersion is the current snapshot format (2 added per-frame
// CRCs; 3 added the content-dedup section). Version-2 snapshots are
// still loadable — they simply carry no dedup mappings.
const indexVersion = 3

// minIndexVersion is the oldest snapshot format still accepted.
const minIndexVersion = 2

type persistedIndex struct {
	Version     int              `json:"version"`
	Banks       int              `json:"banks"`
	SetsPerBank int              `json:"sets_per_bank"`
	Assoc       int              `json:"assoc"`
	BlockSize   int              `json:"block_size"`
	Frames      []persistedFrame `json:"frames"`
	Dedup       []persistedDedup `json:"dedup,omitempty"`
}

// persistedDedup is one content-dedup entry: the canonical frame's
// identity plus the aliases sharing it. Entries are re-validated at
// load against the restored frames (canonical present, CRC matching),
// so a snapshot from a different run can never bind wrong content.
type persistedDedup struct {
	Hash  string         `json:"hash"` // hex SHA-256 of the content
	FH    string         `json:"fh"`   // canonical handle, base64
	Block uint64         `json:"block"`
	Crc   uint32         `json:"crc"`
	Size  uint32         `json:"size"`
	Refs  []persistedRef `json:"refs,omitempty"` // aliases (canonical excluded)
}

type persistedRef struct {
	FH    string `json:"fh"` // base64
	Block uint64 `json:"block"`
}

type persistedFrame struct {
	Idx   int    `json:"idx"`
	FH    string `json:"fh"` // base64 of the handle bytes
	Block uint64 `json:"block"`
	Size  uint32 `json:"size"`
	Crc   uint32 `json:"crc"` // CRC32C of the frame's bank bytes
	LRU   uint64 `json:"lru"`
}

// SaveIndex snapshots the cache tags to disk so a future Cache over
// the same directory starts warm. It fails if dirty frames remain:
// flush or write back first. All stripe locks are held for the scan,
// giving one globally consistent snapshot.
func (c *Cache) SaveIndex() error {
	c.lockAll()
	defer c.unlockAll()
	idx := persistedIndex{
		Version:     indexVersion,
		Banks:       c.cfg.Banks,
		SetsPerBank: c.cfg.SetsPerBank,
		Assoc:       c.cfg.Assoc,
		BlockSize:   c.cfg.BlockSize,
	}
	var dirty int
	var example BlockID
	for i := range c.frames {
		if fr := &c.frames[i]; fr.valid && fr.dirty {
			if dirty == 0 {
				example = fr.id
			}
			dirty++
		}
	}
	if dirty > 0 {
		return fmt.Errorf("cache: SaveIndex with %d dirty frame(s), e.g. {fh %x, block %d}; flush first",
			dirty, example.FH, example.Block)
	}
	for i := range c.frames {
		fr := &c.frames[i]
		if !fr.valid {
			continue
		}
		if fr.excl {
			// Mid-update: its bank data is being rewritten outside the
			// lock, so the tag may not describe the bytes on disk yet.
			continue
		}
		idx.Frames = append(idx.Frames, persistedFrame{
			Idx:   i,
			FH:    base64.StdEncoding.EncodeToString([]byte(fr.id.FH)),
			Block: fr.id.Block,
			Size:  fr.size,
			Crc:   fr.crc,
			LRU:   fr.lru,
		})
	}
	if c.dedup != nil {
		// dedup.mu is a leaf lock: taking it under the stripe locks is
		// safe because no path acquires a stripe lock while holding it.
		d := c.dedup
		d.mu.Lock()
		for _, e := range d.byHash {
			pe := persistedDedup{
				Hash:  e.hash.String(),
				FH:    base64.StdEncoding.EncodeToString([]byte(e.canonical.FH)),
				Block: e.canonical.Block,
				Crc:   e.crc,
				Size:  e.size,
			}
			for r := range e.refs {
				if r == e.canonical {
					continue
				}
				pe.Refs = append(pe.Refs, persistedRef{
					FH:    base64.StdEncoding.EncodeToString([]byte(r.FH)),
					Block: r.Block,
				})
			}
			idx.Dedup = append(idx.Dedup, pe)
		}
		d.mu.Unlock()
	}
	blob, err := json.Marshal(&idx)
	if err != nil {
		return err
	}
	// Crash-safe publication: write + fsync the temp file, rename it
	// over the old snapshot, then fsync the directory so the rename
	// itself survives power loss. A bare WriteFile+Rename can leave an
	// empty or torn index.json behind.
	tmp := filepath.Join(c.cfg.Dir, indexFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.cfg.Dir, indexFileName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(c.cfg.Dir)
}

// LoadIndex restores tags previously written by SaveIndex. It is a
// no-op if no snapshot exists. A corrupt, truncated or wrong-version
// snapshot is a cold start — logged, deleted, and NOT an error: losing
// warmth must not keep the proxy down. A geometry mismatch remains an
// error (the bank layout would be misinterpreted; the operator must
// either restore the old geometry or clear the directory). Call it on
// a freshly-created Cache.
func (c *Cache) LoadIndex() error {
	path := filepath.Join(c.cfg.Dir, indexFileName)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var idx persistedIndex
	if err := json.Unmarshal(blob, &idx); err != nil {
		return c.coldStart(path, fmt.Sprintf("corrupt snapshot: %v", err))
	}
	if idx.Version < minIndexVersion || idx.Version > indexVersion {
		return c.coldStart(path, fmt.Sprintf("unsupported snapshot version %d", idx.Version))
	}
	if idx.Banks != c.cfg.Banks || idx.SetsPerBank != c.cfg.SetsPerBank ||
		idx.Assoc != c.cfg.Assoc || idx.BlockSize != c.cfg.BlockSize {
		return fmt.Errorf("cache: index geometry %d/%d/%d/%d does not match config %d/%d/%d/%d",
			idx.Banks, idx.SetsPerBank, idx.Assoc, idx.BlockSize,
			c.cfg.Banks, c.cfg.SetsPerBank, c.cfg.Assoc, c.cfg.BlockSize)
	}
	// Decode and check everything before touching cache state, so a
	// snapshot that goes bad halfway also downgrades to a clean cold
	// start. A frame must lie in its block's set, hold at most a block,
	// and name a frame and a block no other entry names: the stripe
	// index could not describe anything else.
	type loaded struct {
		idx  int
		id   BlockID
		size uint32
		crc  uint32
		lru  uint64
	}
	frames := make([]loaded, 0, len(idx.Frames))
	taken := make(map[int]bool, len(idx.Frames))
	restored := make(map[BlockID]uint32, len(idx.Frames))
	for _, pf := range idx.Frames {
		if pf.Idx < 0 || pf.Idx >= len(c.frames) {
			return c.coldStart(path, fmt.Sprintf("frame %d out of range", pf.Idx))
		}
		fhBytes, err := base64.StdEncoding.DecodeString(pf.FH)
		if err != nil {
			return c.coldStart(path, fmt.Sprintf("corrupt handle: %v", err))
		}
		id := BlockID{FH: string(fhBytes), Block: pf.Block}
		_, twice := restored[id]
		lo, hi := c.frameRange(c.setOf(id))
		switch {
		case pf.Idx < lo || pf.Idx >= hi:
			return c.coldStart(path, fmt.Sprintf("frame %d is outside its block's set", pf.Idx))
		case pf.Size > uint32(c.cfg.BlockSize):
			return c.coldStart(path, fmt.Sprintf("frame %d holds %d bytes, more than a block", pf.Idx, pf.Size))
		case taken[pf.Idx] || twice:
			return c.coldStart(path, fmt.Sprintf("frame %d, or its block, is named twice", pf.Idx))
		}
		taken[pf.Idx], restored[id] = true, pf.Crc
		frames = append(frames, loaded{idx: pf.Idx, id: id, size: pf.Size, crc: pf.Crc, lru: pf.LRU})
	}
	c.lockAll()
	defer c.unlockAll()
	for _, lf := range frames {
		c.frames[lf.idx] = frame{id: lf.id, valid: true, size: lf.size, crc: lf.crc, lru: lf.lru}
		s := c.stripeOfFrame(lf.idx)
		s.index[lf.id] = lf.idx
		if lf.lru > s.clock {
			s.clock = lf.lru
		}
	}
	if c.dedup != nil && len(idx.Dedup) > 0 {
		// Rebind dedup entries whose canonical frame survived with the
		// same content; anything else is silently dropped (the aliases
		// just re-fetch on first miss).
		d := c.dedup
		d.mu.Lock()
		for _, pe := range idx.Dedup {
			h, ok := backend.ParseHash(pe.Hash)
			if !ok {
				continue
			}
			fhBytes, err := base64.StdEncoding.DecodeString(pe.FH)
			if err != nil {
				continue
			}
			canonical := BlockID{FH: string(fhBytes), Block: pe.Block}
			if crc, live := restored[canonical]; !live || crc != pe.Crc {
				continue
			}
			if _, dup := d.byHash[h]; dup {
				continue
			}
			e := &dentry{hash: h, canonical: canonical, crc: pe.Crc, size: pe.Size,
				refs: map[BlockID]struct{}{canonical: {}}}
			d.byHash[h] = e
			d.byID[canonical] = e
			for _, pr := range pe.Refs {
				rb, err := base64.StdEncoding.DecodeString(pr.FH)
				if err != nil {
					continue
				}
				rid := BlockID{FH: string(rb), Block: pr.Block}
				if _, taken := d.byID[rid]; taken {
					continue
				}
				e.refs[rid] = struct{}{}
				d.byID[rid] = e
			}
		}
		d.mu.Unlock()
	}
	return nil
}

// coldStart logs why the snapshot is unusable, removes it, and reports
// success: the cache simply starts cold.
func (c *Cache) coldStart(path, reason string) error {
	c.log.Warn("cache index snapshot unusable; starting cold",
		"path", path, "reason", reason)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
