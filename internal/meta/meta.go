// Package meta implements GVFS meta-data handling (paper §3.2.2).
// Grid middleware generates a meta-data file for certain categories of
// files using application-tailored knowledge; the file lives in the
// same directory as the data file under a special name, and a GVFS
// proxy that receives an NFS request for a file with associated
// meta-data processes it and takes the described actions.
//
// Two kinds of meta-data are supported, matching the paper:
//
//   - A zero-block map for VM memory-state files: a bitmap marking
//     which blocks are entirely zero-filled, letting the client proxy
//     satisfy those reads locally. (In the paper's example, 60,452 of
//     65,750 reads of a 512 MB memory state are filtered this way.)
//
//   - An action list ("compress", "remote copy", "uncompress", "read
//     locally") that tells the proxy to fetch the whole file through a
//     compressed file-based data channel instead of block-by-block NFS,
//     and then serve all requests from the local file cache.
package meta

import (
	"encoding/json"
	"fmt"
)

// Prefix is the special filename prefix of meta-data files: the
// meta-data for "vm.vmss" is stored as ".gvfsmeta.vm.vmss" in the same
// directory.
const Prefix = ".gvfsmeta."

// NameFor returns the meta-data filename for a data file name.
func NameFor(name string) string { return Prefix + name }

// IsMetaName reports whether name is a meta-data file.
func IsMetaName(name string) bool {
	return len(name) > len(Prefix) && name[:len(Prefix)] == Prefix
}

// DataNameFor returns the data file a meta-data filename refers to.
func DataNameFor(metaName string) string {
	if !IsMetaName(metaName) {
		return ""
	}
	return metaName[len(Prefix):]
}

// Action is one step a proxy takes when the associated file is
// accessed.
type Action string

// Actions from the paper: compress the file on the server, remote copy
// the compressed image, uncompress into the file cache, then satisfy
// all requests locally.
const (
	ActionCompress   Action = "compress"
	ActionRemoteCopy Action = "remote-copy"
	ActionUncompress Action = "uncompress"
	ActionReadLocal  Action = "read-local"
)

// FileChannelActions is the canonical action sequence for files that
// middleware knows will be required in their entirety (e.g. VMware
// memory state on resume).
func FileChannelActions() []Action {
	return []Action{ActionCompress, ActionRemoteCopy, ActionUncompress, ActionReadLocal}
}

// Meta is the content of a meta-data file.
type Meta struct {
	// Version identifies the format.
	Version int `json:"version"`
	// FileSize is the size of the associated data file when the
	// meta-data was generated.
	FileSize uint64 `json:"file_size"`
	// BlockSize is the granularity of ZeroMap in bytes.
	BlockSize uint32 `json:"block_size,omitempty"`
	// ZeroMap is a bitmap with one bit per block; bit i set means
	// block i of the data file is entirely zero.
	ZeroMap []byte `json:"zero_map,omitempty"`
	// Actions is the ordered list of actions to take when the file is
	// accessed.
	Actions []Action `json:"actions,omitempty"`
}

// CurrentVersion is the format version this package writes.
const CurrentVersion = 1

// Encode serializes the meta-data for storage.
func (m *Meta) Encode() ([]byte, error) {
	m.Version = CurrentVersion
	return json.Marshal(m)
}

// Decode parses a meta-data file.
func Decode(data []byte) (*Meta, error) {
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if m.Version != CurrentVersion {
		return nil, fmt.Errorf("meta: unsupported version %d", m.Version)
	}
	if m.ZeroMap != nil && m.BlockSize == 0 {
		return nil, fmt.Errorf("meta: zero map without block size")
	}
	return &m, nil
}

// HasZeroMap reports whether zero-block filtering applies.
func (m *Meta) HasZeroMap() bool { return len(m.ZeroMap) > 0 && m.BlockSize > 0 }

// WantsFileChannel reports whether the action list requests whole-file
// transfer through the file-based data channel.
func (m *Meta) WantsFileChannel() bool {
	var copy, local bool
	for _, a := range m.Actions {
		switch a {
		case ActionRemoteCopy:
			copy = true
		case ActionReadLocal:
			local = true
		}
	}
	return copy && local
}

// WantsCompression reports whether the file channel should compress.
func (m *Meta) WantsCompression() bool {
	for _, a := range m.Actions {
		if a == ActionCompress {
			return true
		}
	}
	return false
}

// NumBlocks returns how many blocks the zero map covers.
func (m *Meta) NumBlocks() uint64 {
	if m.BlockSize == 0 {
		return 0
	}
	return (m.FileSize + uint64(m.BlockSize) - 1) / uint64(m.BlockSize)
}

// IsZeroBlock reports whether block is marked all-zero. Blocks past
// the map are not zero (conservative).
func (m *Meta) IsZeroBlock(block uint64) bool {
	if !m.HasZeroMap() || block >= m.NumBlocks() {
		return false
	}
	byteIdx := block / 8
	if byteIdx >= uint64(len(m.ZeroMap)) {
		return false
	}
	return m.ZeroMap[byteIdx]&(1<<(block%8)) != 0
}

// ZeroBlockCount returns the number of blocks marked zero.
func (m *Meta) ZeroBlockCount() uint64 {
	var n uint64
	for block := uint64(0); block < m.NumBlocks(); block++ {
		if m.IsZeroBlock(block) {
			n++
		}
	}
	return n
}

// ClearZero takes block out of the zero map: it has been written since
// the map was generated. A proxy does this to its own decoded copy.
func (m *Meta) ClearZero(block uint64) {
	if byteIdx := block / 8; byteIdx < uint64(len(m.ZeroMap)) {
		m.ZeroMap[byteIdx] &^= 1 << (block % 8)
	}
}

// setZero marks block as all-zero.
func (m *Meta) setZero(block uint64) {
	byteIdx := block / 8
	for uint64(len(m.ZeroMap)) <= byteIdx {
		m.ZeroMap = append(m.ZeroMap, 0)
	}
	m.ZeroMap[byteIdx] |= 1 << (block % 8)
}

// GenerateZeroMap pre-processes a memory-state file: it scans data in
// blockSize units and records which blocks are entirely zero. This is
// the middleware-side generation step the paper describes for VMware
// .vmss files.
func GenerateZeroMap(data []byte, blockSize uint32) *Meta {
	m := &Meta{
		Version:   CurrentVersion,
		FileSize:  uint64(len(data)),
		BlockSize: blockSize,
	}
	bs := int(blockSize)
	for off := 0; off < len(data); off += bs {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		if allZero(data[off:end]) {
			m.setZero(uint64(off / bs))
		}
	}
	return m
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// ForWholeFile builds the meta-data middleware attaches to files it
// speculates will be entirely required (memory state on resume):
// the compress/remote-copy/uncompress/read-local channel, plus a zero
// map so reads can additionally be filtered.
func ForWholeFile(data []byte, blockSize uint32) *Meta {
	m := GenerateZeroMap(data, blockSize)
	m.Actions = FileChannelActions()
	return m
}
