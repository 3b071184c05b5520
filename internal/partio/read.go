package partio

import (
	"fmt"
	"os"
	"sync"
	"unsafe"

	"mixen/internal/analyze"
	"mixen/internal/block"
	"mixen/internal/filter"
	"mixen/internal/graph"
)

// Options tunes Open.
type Options struct {
	// SkipChecksum skips the whole-file CRC pass. Verification touches
	// every page of the file; skipping it preserves pure lazy paging for
	// partitions larger than RAM, at the cost of not detecting at-rest
	// corruption up front (the structural checks still run).
	SkipChecksum bool
}

// File is an opened .mixp partition: the filtered form, the partition, and
// the out-degree snapshot, all backed directly by the file mapping (on
// platforms without mmap, by one in-memory copy of the file). Nothing is
// deserialized — the arrays are the mapped bytes, shared through the page
// cache with every other process that opened the same file.
//
// F and P are frozen: immutable per the engine's PR2 contract and, when
// mapped, physically read-only (a stray write faults). They remain valid
// until Close; Close after the last query, not before.
type File struct {
	Meta   Meta
	F      *filter.Filtered
	P      *block.Partition
	OutDeg []float64 // original-graph out-degrees, indexed by original id

	path      string
	data      []byte
	mapped    bool
	closeOnce sync.Once
	closeErr  error
}

// Path returns the file the partition was opened from.
func (f *File) Path() string { return f.path }

// Mapped reports whether the arrays are mmap-backed (false means the
// no-mmap fallback copied the file into memory).
func (f *File) Mapped() bool { return f.mapped }

// Close releases the mapping. Every slice reachable from F, P and OutDeg
// becomes invalid — callers must ensure no query is in flight.
func (f *File) Close() error {
	f.closeOnce.Do(func() {
		if f.mapped && f.data != nil {
			f.closeErr = unmapFile(f.data)
		}
		f.data = nil
	})
	return f.closeErr
}

// Open maps the .mixp file at path and assembles the partition in place.
// The header, architecture, file length and (unless skipped) checksum are
// verified before any array is interpreted; structural shape checks cover
// the rest. The returned File serves queries immediately — there is no
// deserialization step.
func Open(path string, opts ...Options) (*File, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if !nativeLittleEndian() {
		return nil, errBigEndian("open")
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close() // the mapping outlives the descriptor
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerLen {
		return nil, fmt.Errorf("partio: %s: truncated: %d bytes, need at least the %d-byte header", path, size, headerLen)
	}
	data, mapped, err := mapFile(fd, size)
	if err != nil {
		return nil, fmt.Errorf("partio: %s: map: %w", path, err)
	}
	f, err := assemble(path, data, mapped, o)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	return f, nil
}

func assemble(path string, data []byte, mapped bool, o Options) (*File, error) {
	h := decodeHeader(data[:headerLen])
	if h.magic != Magic {
		return nil, fmt.Errorf("partio: %s: bad magic %#08x: not a .mixp file", path, h.magic)
	}
	if h.version != Version {
		return nil, fmt.Errorf("partio: %s: format version %d, this build reads only version %d; files are used in place, not converted — rebuild it from the graph with `mixenconvert -partition`", path, h.version, Version)
	}
	if h.arch != ArchLE64 {
		return nil, fmt.Errorf("partio: %s: architecture word %d not supported (want %d: little-endian/64-bit layouts)", path, h.arch, ArchLE64)
	}
	if h.hdrLen != headerLen {
		return nil, fmt.Errorf("partio: %s: header length %d, want %d", path, h.hdrLen, headerLen)
	}
	if h.fileLen != uint64(len(data)) {
		return nil, fmt.Errorf("partio: %s: file is %d bytes but header says %d (truncated or appended)", path, len(data), h.fileLen)
	}
	tableEnd := uint64(headerLen) + uint64(h.sections)*tableEntLen
	if tableEnd > uint64(len(data)) {
		return nil, fmt.Errorf("partio: %s: section table (%d entries) exceeds file size", path, h.sections)
	}
	if !o.SkipChecksum {
		if got := checksum(data[headerLen:]); got != h.checksum {
			return nil, fmt.Errorf("partio: %s: checksum mismatch: file says %#x, content hashes to %#x (corrupted file)", path, h.checksum, got)
		}
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// mmap returns page-aligned memory and the Go allocator 8-aligns
		// large buffers, so this is belt-and-braces for exotic fallbacks:
		// realign by copying rather than producing misaligned int64 views.
		dup := make([]byte, len(data))
		copy(dup, data)
		if mapped {
			unmapFile(data)
		}
		data, mapped = dup, false
	}

	secs := make(map[uint32]section, h.sections)
	for i := uint64(0); i < uint64(h.sections); i++ {
		s := decodeSection(data[headerLen+i*tableEntLen:])
		if s.offset < tableEnd || s.offset%sectionAlign != 0 {
			return nil, fmt.Errorf("partio: %s: section %d at unaligned or overlapping offset %d", path, s.id, s.offset)
		}
		if s.length > uint64(len(data)) || s.offset > uint64(len(data))-s.length {
			return nil, fmt.Errorf("partio: %s: section %d [%d,+%d) exceeds file size %d", path, s.id, s.offset, s.length, len(data))
		}
		if _, dup := secs[s.id]; dup {
			return nil, fmt.Errorf("partio: %s: duplicate section %d", path, s.id)
		}
		secs[s.id] = s
	}
	req := func(id uint32) (section, error) {
		s, ok := secs[id]
		if !ok {
			return section{}, fmt.Errorf("partio: %s: required section %d missing", path, id)
		}
		return s, nil
	}

	ms, err := req(secMeta)
	if err != nil {
		return nil, err
	}
	m, err := decodeMeta(data[ms.offset : ms.offset+ms.length])
	if err != nil {
		return nil, fmt.Errorf("partio: %s: %w", path, err)
	}
	if m.NumRegular+m.NumSeed+m.NumSink+m.NumIsolated != m.N || m.NumHub > m.NumRegular || m.R != m.NumRegular {
		return nil, fmt.Errorf("partio: %s: META class counts inconsistent", path)
	}

	newID, err := viewReq[graph.Node](path, data, secs, secNewID, uint64(m.N))
	if err != nil {
		return nil, err
	}
	oldID, err := viewReq[graph.Node](path, data, secs, secOldID, uint64(m.N))
	if err != nil {
		return nil, err
	}
	class, err := viewReq[analyze.NodeClass](path, data, secs, secClass, uint64(m.N))
	if err != nil {
		return nil, err
	}
	seedPtr, err := viewReq[int64](path, data, secs, secSeedPtr, uint64(m.NumSeed+1))
	if err != nil {
		return nil, err
	}
	if err := checkMonotone(path, "SeedPtr", seedPtr); err != nil {
		return nil, err
	}
	seedIdx, err := viewReq[graph.Node](path, data, secs, secSeedIdx, uint64(seedPtr[m.NumSeed]))
	if err != nil {
		return nil, err
	}
	sinkPtr, err := viewReq[int64](path, data, secs, secSinkPtr, uint64(m.NumSink+1))
	if err != nil {
		return nil, err
	}
	if err := checkMonotone(path, "SinkPtr", sinkPtr); err != nil {
		return nil, err
	}
	sinkIdx, err := viewReq[graph.Node](path, data, secs, secSinkIdx, uint64(sinkPtr[m.NumSink]))
	if err != nil {
		return nil, err
	}
	outDeg, err := viewReq[float64](path, data, secs, secOutDeg, uint64(m.N))
	if err != nil {
		return nil, err
	}
	heads, err := viewReq[block.FlatBlock](path, data, secs, secBlkHdr, uint64(m.NumBlocks))
	if err != nil {
		return nil, err
	}
	srcOff, err := viewReq[int64](path, data, secs, secBlkSrcOff, uint64(m.NumBlocks+1))
	if err != nil {
		return nil, err
	}
	dstOff, err := viewReq[int64](path, data, secs, secBlkDstOff, uint64(m.NumBlocks+1))
	if err != nil {
		return nil, err
	}
	srcs, err := viewReq[graph.Node](path, data, secs, secSrcs, uint64(m.CompressedEntries))
	if err != nil {
		return nil, err
	}
	dst, err := viewReq[uint32](path, data, secs, secDst, uint64(m.Nnz))
	if err != nil {
		return nil, err
	}
	srcEntryPtr, err := viewReq[int64](path, data, secs, secSrcEntryPtr, uint64(m.R+1))
	if err != nil {
		return nil, err
	}
	var srcEntryIdx []uint32
	var srcEntryCol []int32
	if _, ok := secs[secSrcEntryIdx]; ok {
		srcEntryIdx, err = viewReq[uint32](path, data, secs, secSrcEntryIdx, uint64(m.CompressedEntries))
		if err != nil {
			return nil, err
		}
		srcEntryCol, err = viewReq[int32](path, data, secs, secSrcEntryCol, uint64(m.CompressedEntries))
		if err != nil {
			return nil, err
		}
	}
	rowEntries, err := viewReq[int64](path, data, secs, secRowEntries, uint64(m.B))
	if err != nil {
		return nil, err
	}
	rowEdges, err := viewReq[int64](path, data, secs, secRowEdges, uint64(m.B))
	if err != nil {
		return nil, err
	}
	colEdges, err := viewReq[int64](path, data, secs, secColEdges, uint64(m.B))
	if err != nil {
		return nil, err
	}

	fd := &filter.Filtered{
		NewID:       newID,
		OldID:       oldID,
		Class:       class,
		NumHub:      m.NumHub,
		NumRegular:  m.NumRegular,
		NumSeed:     m.NumSeed,
		NumSink:     m.NumSink,
		NumIsolated: m.NumIsolated,
		SeedPtr:     seedPtr,
		SeedIdx:     seedIdx,
		SinkPtr:     sinkPtr,
		SinkIdx:     sinkIdx,
	}
	p, err := block.AssembleFlat(block.Flat{
		R:           m.R,
		Side:        m.Side,
		Nnz:         m.Nnz,
		Heads:       heads,
		SrcOff:      srcOff,
		DstOff:      dstOff,
		Srcs:        srcs,
		Dst:         dst,
		SrcEntryPtr: srcEntryPtr,
		SrcEntryIdx: srcEntryIdx,
		SrcEntryCol: srcEntryCol,
		RowEntries:  rowEntries,
		RowEdges:    rowEdges,
		ColEdges:    colEdges,
	})
	if err != nil {
		return nil, fmt.Errorf("partio: %s: %w", path, err)
	}
	if p.B != m.B || p.CompressedEntries != m.CompressedEntries || p.Splits != m.Splits {
		return nil, fmt.Errorf("partio: %s: assembled partition shape (b=%d ce=%d splits=%d) disagrees with META (b=%d ce=%d splits=%d)",
			path, p.B, p.CompressedEntries, p.Splits, m.B, m.CompressedEntries, m.Splits)
	}
	return &File{
		Meta:   m,
		F:      fd,
		P:      p,
		OutDeg: outDeg,
		path:   path,
		data:   data,
		mapped: mapped,
	}, nil
}

// checkMonotone rejects a CSR pointer array whose values decrease or start
// off zero — the engine indexes adjacency slices by these values, so a
// corrupt array (possible when the checksum pass was skipped) must fail
// here rather than panic mid-query.
func checkMonotone(path, name string, ptr []int64) error {
	if len(ptr) > 0 && ptr[0] != 0 {
		return fmt.Errorf("partio: %s: %s does not start at 0", path, name)
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			return fmt.Errorf("partio: %s: %s decreases at %d", path, name, i)
		}
	}
	return nil
}

// viewReq locates a required section and returns its in-place typed view,
// checking that its byte length and element count match the expected count.
func viewReq[T any](path string, data []byte, secs map[uint32]section, id uint32, want uint64) ([]T, error) {
	s, ok := secs[id]
	if !ok {
		return nil, fmt.Errorf("partio: %s: required section %d missing", path, id)
	}
	var elem T
	es := uint64(unsafe.Sizeof(elem))
	if s.count != want {
		return nil, fmt.Errorf("partio: %s: section %d holds %d elements, want %d", path, id, s.count, want)
	}
	if s.count > uint64(len(data))/es {
		return nil, fmt.Errorf("partio: %s: section %d count %d cannot fit the file", path, id, s.count)
	}
	if s.length != s.count*es {
		return nil, fmt.Errorf("partio: %s: section %d length %d != %d elements × %d bytes", path, id, s.length, s.count, es)
	}
	if s.count == 0 {
		return []T{}, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[s.offset])), s.count), nil
}
