package partio

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"mixen/internal/block"
	"mixen/internal/filter"
)

// Layout is the build-time provenance baked into the file: whether the
// block side came from the auto-tuner, and when the file was built.
// Servers report it from /healthz so a fleet can tell which tuning
// generation each process mapped.
type Layout struct {
	AutoTuned bool  // Side chosen by the measured auto-tuner
	Epoch     int64 // build instant, UnixNano; 0 means "now"
}

// Write serializes the filtered form f, its partition p, and the original
// graph's out-degree snapshot outDeg (len f.N(), indexed by original id —
// what the *Shared program constructors consume) into a .mixp file at path.
// The write goes through path+".tmp" and renames into place, so a crashed
// build never leaves a half-written file under the final name.
//
// The regular CSR (f.RegPtr/RegIdx) is deliberately NOT stored: the
// partition already encodes the regular submatrix, and no serving path
// reads the CSR. A reloaded form therefore cannot be re-partitioned — it is
// read-only serving state.
func Write(path string, f *filter.Filtered, p *block.Partition, outDeg []float64, lay Layout) (err error) {
	if !nativeLittleEndian() {
		return errBigEndian("write")
	}
	if f == nil || p == nil {
		return fmt.Errorf("partio: write: nil filtered form or partition")
	}
	if f.NumRegular != p.R {
		return fmt.Errorf("partio: write: partition is %d×%d but filtered form has %d regular nodes", p.R, p.R, f.NumRegular)
	}
	if len(outDeg) != f.N() {
		return fmt.Errorf("partio: write: out-degree snapshot has %d entries, graph has %d nodes", len(outDeg), f.N())
	}
	meta := Meta{
		N:                 f.N(),
		NumHub:            f.NumHub,
		NumRegular:        f.NumRegular,
		NumSeed:           f.NumSeed,
		NumSink:           f.NumSink,
		NumIsolated:       f.NumIsolated,
		R:                 p.R,
		Side:              p.Side,
		B:                 p.B,
		NumBlocks:         len(p.Blocks),
		Nnz:               p.Nnz,
		CompressedEntries: p.CompressedEntries,
		Splits:            p.Splits,
		AutoTuned:         lay.AutoTuned,
		Epoch:             lay.Epoch,
	}
	if f.G != nil {
		meta.GraphEdges = f.G.NumEdges()
	}
	if meta.Epoch == 0 {
		meta.Epoch = time.Now().UnixNano()
	}

	fl := p.Flatten()
	nb := len(p.Blocks)

	// Section plan: lengths are known up front, so offsets — and with them
	// the exact file length — are fixed before the first payload byte is
	// written, and the body streams sequentially through one buffer.
	type plannedSection struct {
		section
		emit func(io.Writer) error
	}
	var secs []plannedSection
	add := func(id uint32, count, length int64, emit func(io.Writer) error) {
		secs = append(secs, plannedSection{section{id: id, length: uint64(length), count: uint64(count)}, emit})
	}
	raw := func(id uint32, count int64, b []byte) {
		add(id, count, int64(len(b)), func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	}
	perBlock := func(id uint32, count, length int64, pick func(sb *block.SubBlock) []byte) {
		add(id, count, length, func(w io.Writer) error {
			for _, sb := range p.Blocks {
				if _, err := w.Write(pick(sb)); err != nil {
					return err
				}
			}
			return nil
		})
	}

	ce := p.CompressedEntries
	raw(secMeta, 1, meta.encode())
	raw(secNewID, int64(f.N()), bytesOf(f.NewID))
	raw(secOldID, int64(f.N()), bytesOf(f.OldID))
	raw(secClass, int64(f.N()), bytesOf(f.Class))
	raw(secSeedPtr, int64(len(f.SeedPtr)), bytesOf(f.SeedPtr))
	raw(secSeedIdx, int64(len(f.SeedIdx)), bytesOf(f.SeedIdx))
	raw(secSinkPtr, int64(len(f.SinkPtr)), bytesOf(f.SinkPtr))
	raw(secSinkIdx, int64(len(f.SinkIdx)), bytesOf(f.SinkIdx))
	raw(secOutDeg, int64(len(outDeg)), bytesOf(outDeg))
	raw(secBlkHdr, int64(nb), bytesOf(fl.Heads))
	raw(secBlkSrcOff, int64(nb+1), bytesOf(fl.SrcOff))
	raw(secBlkDstOff, int64(nb+1), bytesOf(fl.DstOff))
	perBlock(secSrcs, ce, ce*4, func(sb *block.SubBlock) []byte { return bytesOf(sb.Srcs) })
	perBlock(secDst, p.Nnz, p.Nnz*4, func(sb *block.SubBlock) []byte { return bytesOf(sb.Dst) })
	raw(secSrcEntryPtr, int64(len(p.SrcEntryPtr)), bytesOf(p.SrcEntryPtr))
	if p.SrcEntryIdx != nil {
		raw(secSrcEntryIdx, int64(len(p.SrcEntryIdx)), bytesOf(p.SrcEntryIdx))
		raw(secSrcEntryCol, int64(len(p.SrcEntryCol)), bytesOf(p.SrcEntryCol))
	}
	raw(secRowEntries, int64(p.B), bytesOf(p.RowEntries))
	raw(secRowEdges, int64(p.B), bytesOf(p.RowEdges))
	raw(secColEdges, int64(p.B), bytesOf(p.ColEdges))

	cur := align64(headerLen + uint64(len(secs))*tableEntLen)
	for i := range secs {
		secs[i].offset = cur
		cur = align64(cur + secs[i].length)
	}
	fileLen := cur

	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if out != nil {
			out.Close()
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err = bw.Write(make([]byte, headerLen)); err != nil {
		return err
	}
	cw := &crcWriter{w: bw, n: headerLen}
	for i := range secs {
		if _, err = cw.Write(secs[i].encode()); err != nil {
			return err
		}
	}
	for i := range secs {
		if err = cw.pad(secs[i].offset); err != nil {
			return err
		}
		before := cw.n
		if err = secs[i].emit(cw); err != nil {
			return err
		}
		if cw.n-before != secs[i].length {
			return fmt.Errorf("partio: write: section %d emitted %d bytes, planned %d", secs[i].id, cw.n-before, secs[i].length)
		}
	}
	if err = cw.pad(fileLen); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	h := header{
		magic:    Magic,
		version:  Version,
		arch:     ArchLE64,
		sections: uint32(len(secs)),
		hdrLen:   headerLen,
		fileLen:  fileLen,
		checksum: uint64(cw.crc),
	}
	if _, err = out.WriteAt(h.encode(), 0); err != nil {
		return err
	}
	if err = out.Sync(); err != nil {
		return err
	}
	if err = out.Close(); err != nil {
		out = nil
		return err
	}
	out = nil
	return os.Rename(tmp, path)
}

// crcWriter counts absolute file position and maintains the body checksum
// (everything after the header) while streaming through the buffer.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   uint64 // absolute file offset of the next byte
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	c.n += uint64(n)
	return n, err
}

// pad zero-fills up to the absolute offset `to`.
func (c *crcWriter) pad(to uint64) error {
	var zeros [sectionAlign]byte
	for c.n < to {
		chunk := to - c.n
		if chunk > sectionAlign {
			chunk = sectionAlign
		}
		if _, err := c.Write(zeros[:chunk]); err != nil {
			return err
		}
	}
	return nil
}
