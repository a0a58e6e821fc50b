package bench

import (
	"bytes"
	"fmt"

	gvfs "gvfs"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/cache"
	"gvfs/internal/stack"
)

// RunDedup measures cross-VM content dedup: N VM images cloned from
// one golden image are booted (read end to end) through a proxy whose
// disk cache runs the content-addressed dedup table, over the objstore
// backend. A CountingStore wraps the origin, so the experiment reports
// exactly how many content bytes left it as the clone count grows —
// with dedup working, the curve is flat: clone 2..N resolve their
// blocks by hash against frames clone 1 already faulted in.
func (o Options) RunDedup() (*Table, error) {
	const (
		clones    = 10
		blockSize = 8192
	)
	t := &Table{
		ID:    "dedup",
		Title: "Cross-VM dedup: cumulative origin content bytes vs. clones booted",
		Scale: o.scale(),
		Columns: []string{
			"origin MB (cum)", "dedup entries", "dedup refs", "dedup hits",
		},
	}

	// Golden image: 32 MB at paper scale, deterministic content, with
	// ~25% zero blocks (sparse VM state), floor of 64 blocks.
	blocks := int(32 << 20 / blockSize / o.scale())
	if blocks < 64 {
		blocks = 64
	}
	img := make([]byte, blocks*blockSize)
	for b := 0; b < blocks; b++ {
		if b%4 == 3 {
			continue // zero block
		}
		// xorshift64 keyed by block: deterministic, cheap, incompressible.
		x := uint64(b)*0x9E3779B97F4A7C15 + 1
		blk := img[b*blockSize : (b+1)*blockSize]
		for i := 0; i < blockSize; i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			for j := 0; j < 8; j++ {
				blk[i+j] = byte(x >> (8 * j))
			}
		}
	}

	origin := objstore.NewCountingStore(objstore.NewMemStore())
	seed := objstore.New(origin, blockSize)
	if err := seed.CreateFile("/golden.img", img); err != nil {
		return nil, err
	}

	ccfg := o.cacheConfig(cache.WriteBack)
	ccfg.Dedup = true
	c, err := o.start(stack.ChainSpec{Upstream: stack.Objstore, NoSession: true,
		Hops: []stack.ProxyOptions{{CacheConfig: ccfg, ObjstoreStore: origin, ObjstoreBlock: blockSize}}})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	node := c.Hop()

	type cloneSample struct {
		Clone           int     `json:"clone"`
		OriginDataBytes uint64  `json:"origin_data_bytes"`
		OriginDataGets  uint64  `json:"origin_data_gets"`
		DedupEntries    int     `json:"dedup_entries"`
		DedupRefs       int     `json:"dedup_refs"`
		DedupHits       uint64  `json:"dedup_hits"`
		MB              float64 `json:"origin_mb"`
	}
	samples := make([]cloneSample, 0, clones)

	buf := make([]byte, blockSize)
	for n := 1; n <= clones; n++ {
		name := fmt.Sprintf("/clone-%02d.img", n)
		if err := seed.Clone("/golden.img", name); err != nil {
			return nil, err
		}
		// Fresh session per clone: a new VM's kernel client, cold page
		// cache, booting by reading its image end to end.
		cfg := o.session()
		cfg.Addr, cfg.Export = node.Addr, "/"
		sess, err := gvfs.Mount(cfg)
		if err != nil {
			return nil, err
		}
		f, err := sess.Open(name)
		if err != nil {
			sess.Close()
			return nil, err
		}
		for off := int64(0); off < int64(len(img)); off += blockSize {
			if _, err := f.ReadAt(buf, off); err != nil {
				f.Close()
				sess.Close()
				return nil, fmt.Errorf("clone %d read at %d: %w", n, off, err)
			}
			if !bytes.Equal(buf, img[off:off+blockSize]) {
				f.Close()
				sess.Close()
				return nil, fmt.Errorf("clone %d: wrong bytes at offset %d", n, off)
			}
		}
		f.Close()
		sess.Close()

		st := origin.Stats()
		ds := node.BlockCache.DedupStats()
		s := cloneSample{
			Clone:           n,
			OriginDataBytes: st.DataGetBytes,
			OriginDataGets:  st.DataGets,
			DedupEntries:    ds.Entries,
			DedupRefs:       ds.Refs,
			DedupHits:       ds.Hits,
			MB:              float64(st.DataGetBytes) / 1e6,
		}
		samples = append(samples, s)
		t.AddValueRow(fmt.Sprintf("clone %d", n),
			s.MB, float64(s.DedupEntries), float64(s.DedupRefs), float64(s.DedupHits))
		o.logf("dedup: clone %d booted, %.2f MB cumulative from origin, %d entries / %d refs",
			n, s.MB, s.DedupEntries, s.DedupRefs)
	}

	first := samples[0].OriginDataBytes
	last := samples[clones-1].OriginDataBytes
	ratio := float64(last) / float64(first)
	t.AddNote("image %d KB (%d blocks, 25%% zero); %d clones", len(img)/1024, blocks, clones)
	t.AddNote("origin bytes after %d clones = %.2fx after 1 (flat curve = dedup working; target <= 1.2x)",
		clones, ratio)

	report := struct {
		Experiment  string        `json:"experiment"`
		Scale       float64       `json:"scale"`
		BlockSize   int           `json:"block_size"`
		ImageBytes  int           `json:"image_bytes"`
		ZeroBlocks  string        `json:"zero_blocks"`
		Clones      int           `json:"clones"`
		Samples     []cloneSample `json:"samples"`
		BytesRatio  float64       `json:"origin_bytes_ratio_cloneN_vs_clone1"`
		RatioTarget float64       `json:"ratio_target"`
		Pass        bool          `json:"pass"`
	}{
		Experiment: "dedup", Scale: o.scale(), BlockSize: blockSize,
		ImageBytes: len(img), ZeroBlocks: "every 4th block",
		Clones: clones, Samples: samples,
		BytesRatio: ratio, RatioTarget: 1.2, Pass: ratio <= 1.2,
	}
	if err := o.writeResults("BENCH_dedup.json", report); err != nil {
		return nil, err
	}
	if ratio > 1.2 {
		return nil, fmt.Errorf("dedup: origin bytes grew %.2fx across %d clones (want <= 1.2x)", ratio, clones)
	}
	return t, nil
}
