// Package partio reads and writes the versioned on-disk partition format
// `.mixp`: every array the serving engine touches — the filtered relabeling
// and demux tables, seed/sink CSR/CSC, the 2-D block structures with their
// per-source entry index, the out-degree snapshot, and the layout decision
// (block side + auto-tune provenance) — stored little-endian, 64-byte
// aligned, and ready-to-use, so a server mmaps the file and serves
// immediately with zero deserialization, page-cache-shared across processes
// on one host.
//
// File layout:
//
//	[ 64-byte header | section table | 64-byte-aligned payload sections ]
//
// The header carries magic/version/arch words, the section count, the total
// file length (truncation check) and a CRC-32C checksum over everything
// after the header. The section table is an array of fixed 32-byte entries
// {id, offset, length, count}; unknown ids are ignored on read so the
// format can grow without a version bump, while changing the meaning of an
// existing section requires one. Payload sections start on 64-byte
// boundaries, which (with a page-aligned mapping) makes the in-place
// []int64/[]float64 views safely aligned.
//
// The format is little-endian only: the arrays are meant to be used
// directly from the mapping, so a big-endian host cannot byte-swap lazily —
// Open and Write both fail there with a clear unsupported-architecture
// error rather than producing garbage.
package partio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

const (
	// Magic is the file magic, "MIXP" read as a little-endian uint32.
	Magic uint32 = 'M' | 'I'<<8 | 'X'<<16 | 'P'<<24
	// Version is the current format version. Readers reject other versions:
	// files are used in place, never converted, so an old one is rebuilt
	// from the graph (mixenconvert -partition). Version 2 replaced version
	// 1's destination ids + per-entry offsets with the one flagged
	// destination stream of block.SubBlock.Dst.
	Version uint32 = 2
	// ArchLE64 is the only defined architecture word: little-endian with
	// the 64-bit array layouts this package writes.
	ArchLE64 uint32 = 1

	headerLen   = 64
	tableEntLen = 32
	// sectionAlign is the payload alignment; a multiple of every element
	// size used by the format and of typical cache lines.
	sectionAlign = 64

	// metaLen is the fixed size of the META section payload: sixteen
	// 8-byte words and a reserved 24-byte slot. Writers zero the slot and
	// readers ignore it (files written before the slot was reserved hold a
	// NUL-padded strategy name there; their NEWID/OLDID carry its effect).
	metaLen = 16*8 + 24
)

// Section ids. The id namespace is append-only: ids are never reused with
// a different meaning within a version.
const (
	secMeta uint32 = iota + 1
	secNewID
	secOldID
	secClass
	secSeedPtr
	secSeedIdx
	secSinkPtr
	secSinkIdx
	secOutDeg
	secBlkHdr
	secBlkSrcOff
	secBlkDstOff
	secSrcs
	secDst
	secSrcEntryPtr
	secSrcEntryIdx
	secSrcEntryCol
	secRowEntries
	secRowEdges
	secColEdges
)

// Meta is the decoded META section: the scalar shape of the partition plus
// the baked block-side provenance. It is what /healthz reports for a
// mapped partition.
type Meta struct {
	// Node/edge shape of the filtered graph.
	N           int
	NumHub      int
	NumRegular  int
	NumSeed     int
	NumSink     int
	NumIsolated int
	GraphEdges  int64 // edge count of the original graph

	// Partition shape.
	R                 int
	Side              int
	B                 int
	NumBlocks         int
	Nnz               int64
	CompressedEntries int64
	Splits            int64

	// AutoTuned reports that Side came from the measured auto-tuner
	// rather than block.DefaultSide or an explicit side.
	AutoTuned bool

	// Epoch identifies the build instant (UnixNano); servers expose it so
	// fleets can tell which partition generation each process mapped.
	Epoch int64
}

const flagAutoTuned uint64 = 1 << 0

func (m *Meta) encode() []byte {
	buf := make([]byte, metaLen)
	le := binary.LittleEndian
	u := func(i int, v int64) { le.PutUint64(buf[i*8:], uint64(v)) }
	u(0, int64(m.N))
	u(1, int64(m.NumHub))
	u(2, int64(m.NumRegular))
	u(3, int64(m.NumSeed))
	u(4, int64(m.NumSink))
	u(5, int64(m.NumIsolated))
	u(6, m.GraphEdges)
	u(7, int64(m.R))
	u(8, int64(m.Side))
	u(9, int64(m.B))
	u(10, int64(m.NumBlocks))
	u(11, m.Nnz)
	u(12, m.CompressedEntries)
	u(13, m.Splits)
	u(14, m.Epoch)
	var flags uint64
	if m.AutoTuned {
		flags |= flagAutoTuned
	}
	le.PutUint64(buf[15*8:], flags)
	return buf
}

func decodeMeta(b []byte) (Meta, error) {
	if len(b) != metaLen {
		return Meta{}, fmt.Errorf("partio: META section is %d bytes, want %d", len(b), metaLen)
	}
	le := binary.LittleEndian
	s := func(i int) int64 { return int64(le.Uint64(b[i*8:])) }
	m := Meta{
		N:                 int(s(0)),
		NumHub:            int(s(1)),
		NumRegular:        int(s(2)),
		NumSeed:           int(s(3)),
		NumSink:           int(s(4)),
		NumIsolated:       int(s(5)),
		GraphEdges:        s(6),
		R:                 int(s(7)),
		Side:              int(s(8)),
		B:                 int(s(9)),
		NumBlocks:         int(s(10)),
		Nnz:               s(11),
		CompressedEntries: s(12),
		Splits:            s(13),
		Epoch:             s(14),
	}
	flags := le.Uint64(b[15*8:])
	m.AutoTuned = flags&flagAutoTuned != 0
	if m.N < 0 || m.R < 0 || m.NumBlocks < 0 || m.Nnz < 0 || m.CompressedEntries < 0 {
		return Meta{}, fmt.Errorf("partio: negative count in META")
	}
	return m, nil
}

// header is the fixed 64-byte file preamble.
type header struct {
	magic    uint32
	version  uint32
	arch     uint32
	sections uint32
	hdrLen   uint64
	fileLen  uint64
	checksum uint64
}

func (h *header) encode() []byte {
	buf := make([]byte, headerLen)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], h.magic)
	le.PutUint32(buf[4:], h.version)
	le.PutUint32(buf[8:], h.arch)
	le.PutUint32(buf[12:], h.sections)
	le.PutUint64(buf[16:], h.hdrLen)
	le.PutUint64(buf[24:], h.fileLen)
	le.PutUint64(buf[32:], h.checksum)
	return buf
}

func decodeHeader(b []byte) header {
	le := binary.LittleEndian
	return header{
		magic:    le.Uint32(b[0:]),
		version:  le.Uint32(b[4:]),
		arch:     le.Uint32(b[8:]),
		sections: le.Uint32(b[12:]),
		hdrLen:   le.Uint64(b[16:]),
		fileLen:  le.Uint64(b[24:]),
		checksum: le.Uint64(b[32:]),
	}
}

// section is one table entry: a typed byte range in the file. count is the
// element count; length must equal count × the element size the id implies.
type section struct {
	id     uint32
	offset uint64
	length uint64
	count  uint64
}

func (s *section) encode() []byte {
	buf := make([]byte, tableEntLen)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], s.id)
	le.PutUint64(buf[8:], s.offset)
	le.PutUint64(buf[16:], s.length)
	le.PutUint64(buf[24:], s.count)
	return buf
}

func decodeSection(b []byte) section {
	le := binary.LittleEndian
	return section{
		id:     le.Uint32(b[0:]),
		offset: le.Uint64(b[8:]),
		length: le.Uint64(b[16:]),
		count:  le.Uint64(b[24:]),
	}
}

// crcTable is the Castagnoli polynomial: hardware-accelerated on amd64 and
// arm64, and a different polynomial from the IEEE one zip uses, so .mixp
// checksums are not accidentally interchangeable with other tooling.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(body []byte) uint64 { return uint64(crc32.Checksum(body, crcTable)) }

// nativeLittleEndian reports whether this host stores integers
// little-endian; the format refuses to read or write otherwise.
func nativeLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// errBigEndian is the unsupported-architecture error both paths return.
func errBigEndian(op string) error {
	return fmt.Errorf("partio: %s: unsupported architecture: .mixp files are little-endian and used in place; this host is big-endian", op)
}

// align64 rounds n up to the next 64-byte boundary.
func align64(n uint64) uint64 { return (n + sectionAlign - 1) &^ uint64(sectionAlign-1) }

// bytesOf reinterprets a slice's backing store as raw bytes (little-endian
// hosts only — callers gate on nativeLittleEndian).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var elem T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(elem)))
}
