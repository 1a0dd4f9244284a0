package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// Segment file format, version 2 (all integers little-endian):
//
//	[8]  magic "SPASEG02"
//	records, each:
//	  [1] op (0 = put, 1 = tombstone)
//	  [uvarint] key length, key bytes
//	  [uvarint] value length, value bytes (puts only)
//	footer:
//	  sparse index: [4] count, then count × { [uvarint] keyLen, key, [8] offset }
//	  bloom block: [4] hash count k, [4] bit-array byte length, bytes
//	  [8] index offset  [8] bloom offset  [4] record count
//	  [4] crc32 of the whole file up to here
//
// Records are sorted by key. The sparse index holds every indexStride-th
// key so point lookups seek near the target and scan at most a stride; the
// bloom filter lets point lookups skip segments that cannot hold the key
// at all. Any other magic — the version-1 "SPASEG01" files without a bloom
// block included — fails the open.
const (
	segMagic = "SPASEG02"

	indexStride = 16
)

// segment is an immutable sorted file. Reads are served from a fully loaded
// in-memory copy of the record block — profile values are small and campaign
// scans touch everything anyway, so mmap-style paging buys nothing here.
type segment struct {
	path   string
	id     uint64
	data   []byte // record block (after magic)
	index  []indexEntry
	filter *bloomFilter
	count  int
	size   int64 // on-disk size, drives tiered compaction
}

type indexEntry struct {
	key    []byte
	offset int64 // into data
}

// writeSegment writes sorted entries to a new file at path via fops. The
// caller guarantees key order; writeSegment verifies it and fails otherwise,
// since an unsorted segment would corrupt every future merge.
func writeSegment(fops FileOps, path string, entries []entry) error {
	tmp := path + ".tmp"
	f, err := fops.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	defer fops.Remove(tmp)

	h := crc32.New(castagnoli)
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 256<<10)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	var (
		offset  int64 // into record block
		index   = make([]indexEntry, 0, (len(entries)+indexStride-1)/indexStride)
		prevKey []byte
		rec     []byte // one record's encoding, reused
	)
	filter := newBloomFilter(len(entries), bloomBitsPerKey)
	for i, e := range entries {
		if prevKey != nil && bytes.Compare(prevKey, e.key) >= 0 {
			f.Close()
			return fmt.Errorf("store: entries not strictly sorted at %d", i)
		}
		prevKey = e.key
		filter.add(e.key)
		if i%indexStride == 0 {
			index = append(index, indexEntry{key: e.key, offset: offset})
		}
		rec = appendRecord(rec[:0], e)
		if _, err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
		offset += int64(len(rec))
	}
	indexOffset := offset
	rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(index)))
	if _, err := w.Write(rec); err != nil {
		f.Close()
		return err
	}
	offset += int64(len(rec))
	for _, ie := range index {
		rec = binary.AppendUvarint(rec[:0], uint64(len(ie.key)))
		rec = append(rec, ie.key...)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(ie.offset))
		if _, err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
		offset += int64(len(rec))
	}
	bloomOffset := offset
	if _, err := w.Write(filter.marshal()); err != nil {
		f.Close()
		return err
	}
	var tail [20]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(indexOffset))
	binary.LittleEndian.PutUint64(tail[8:16], uint64(bloomOffset))
	binary.LittleEndian.PutUint32(tail[16:20], uint32(len(entries)))
	if _, err := w.Write(tail[:]); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], h.Sum32())
	if _, err := f.Write(crcBuf[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fops.Rename(tmp, path)
}

// appendRecord appends e's segment record encoding to buf.
func appendRecord(buf []byte, e entry) []byte {
	if e.tombstone {
		buf = append(buf, opDelete)
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		return append(buf, e.key...)
	}
	buf = append(buf, opPut)
	buf = binary.AppendUvarint(buf, uint64(len(e.key)))
	buf = append(buf, e.key...)
	buf = binary.AppendUvarint(buf, uint64(len(e.value)))
	return append(buf, e.value...)
}

func openSegment(path string, id uint64) (*segment, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(segMagic)+16 {
		return nil, fmt.Errorf("store: segment %s too short", path)
	}
	if magic := string(raw[:len(segMagic)]); magic != segMagic {
		return nil, fmt.Errorf("store: segment %s has bad magic %q (want %q)", path, magic, segMagic)
	}
	body := raw[:len(raw)-4]
	wantCRC := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, fmt.Errorf("store: segment %s failed checksum", path)
	}
	const tailLen = 20
	if len(body) < len(segMagic)+tailLen {
		return nil, fmt.Errorf("store: segment %s too short", path)
	}
	tail := body[len(body)-tailLen:]
	indexOffset := int64(binary.LittleEndian.Uint64(tail[0:8]))
	bloomOffset := int64(binary.LittleEndian.Uint64(tail[8:16]))
	count := int(binary.LittleEndian.Uint32(tail[16:20]))
	data := body[len(segMagic) : len(body)-tailLen]
	if indexOffset < 0 || indexOffset > int64(len(data)) {
		return nil, fmt.Errorf("store: segment %s has bad index offset", path)
	}
	records := data[:indexOffset]
	if bloomOffset < indexOffset || bloomOffset > int64(len(data)) {
		return nil, fmt.Errorf("store: segment %s has bad bloom offset", path)
	}
	iraw := data[indexOffset:bloomOffset]
	if len(iraw) < 4 {
		return nil, fmt.Errorf("store: segment %s index truncated", path)
	}
	icount := int(binary.LittleEndian.Uint32(iraw[:4]))
	iraw = iraw[4:]
	index := make([]indexEntry, 0, icount)
	for i := 0; i < icount; i++ {
		klen, n := binary.Uvarint(iraw)
		if n <= 0 || uint64(len(iraw)-n) < klen+8 {
			return nil, fmt.Errorf("store: segment %s index entry %d truncated", path, i)
		}
		iraw = iraw[n:]
		key := iraw[:klen]
		iraw = iraw[klen:]
		off := int64(binary.LittleEndian.Uint64(iraw[:8]))
		iraw = iraw[8:]
		index = append(index, indexEntry{key: key, offset: off})
	}
	filter, err := unmarshalBloom(data[bloomOffset:])
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	return &segment{
		path:   path,
		id:     id,
		data:   records,
		index:  index,
		filter: filter,
		count:  count,
		size:   int64(len(raw)),
	}, nil
}

func (s *segment) close() {}

// get performs a point lookup: the bloom filter first (a negative proves
// absence, skipping the segment entirely), then the sparse index.
func (s *segment) get(key []byte) (value []byte, tombstone, ok bool, err error) {
	if len(s.index) == 0 {
		return nil, false, false, nil
	}
	if !s.filter.mayContain(key) {
		return nil, false, false, nil
	}
	// Find the last index entry with key <= target.
	i := sort.Search(len(s.index), func(i int) bool {
		return bytes.Compare(s.index[i].key, key) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	pos := s.index[i].offset
	var end int64
	if i+1 < len(s.index) {
		end = s.index[i+1].offset
	} else {
		end = int64(len(s.data))
	}
	for pos < end {
		e, next, derr := decodeRecordAt(s.data, pos)
		if derr != nil {
			return nil, false, false, derr
		}
		switch bytes.Compare(e.key, key) {
		case 0:
			return append([]byte(nil), e.value...), e.tombstone, true, nil
		case 1:
			return nil, false, false, nil
		}
		pos = next
	}
	return nil, false, false, nil
}

func decodeRecordAt(data []byte, pos int64) (entry, int64, error) {
	if pos >= int64(len(data)) {
		return entry{}, 0, errors.New("store: record offset past end")
	}
	p := data[pos:]
	op := p[0]
	p = p[1:]
	consumed := int64(1)
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return entry{}, 0, errors.New("store: bad record key")
	}
	p = p[n:]
	consumed += int64(n)
	key := p[:klen]
	p = p[klen:]
	consumed += int64(klen)
	if op == opDelete {
		return entry{key: key, tombstone: true}, pos + consumed, nil
	}
	vlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < vlen {
		return entry{}, 0, errors.New("store: bad record value")
	}
	p = p[n:]
	consumed += int64(n)
	value := p[:vlen]
	consumed += int64(vlen)
	return entry{key: key, value: value}, pos + consumed, nil
}

// segIter iterates records in [start, end).
type segIter struct {
	s   *segment
	pos int64
	end []byte
}

func (s *segment) iter(start, end []byte) (iterator, error) {
	var pos int64
	if start != nil && len(s.index) > 0 {
		i := sort.Search(len(s.index), func(i int) bool {
			return bytes.Compare(s.index[i].key, start) > 0
		}) - 1
		if i >= 0 {
			pos = s.index[i].offset
		}
		// Advance record-by-record to the first key >= start.
		for pos < int64(len(s.data)) {
			e, next, err := decodeRecordAt(s.data, pos)
			if err != nil {
				return nil, err
			}
			if bytes.Compare(e.key, start) >= 0 {
				break
			}
			pos = next
		}
	}
	return &segIter{s: s, pos: pos, end: end}, nil
}

func (it *segIter) next() (entry, bool) {
	if it.pos >= int64(len(it.s.data)) {
		return entry{}, false
	}
	e, next, err := decodeRecordAt(it.s.data, it.pos)
	if err != nil {
		// Segments are checksummed at open; a decode error here means memory
		// corruption. Treat as exhausted rather than panicking mid-scan.
		it.pos = int64(len(it.s.data))
		return entry{}, false
	}
	if it.end != nil && bytes.Compare(e.key, it.end) >= 0 {
		it.pos = int64(len(it.s.data))
		return entry{}, false
	}
	it.pos = next
	return e, true
}

// mergeSegments produces the compacted, sorted entry list across segments
// (newest wins). Tombstones are dropped only when dropTombstones is set —
// legal solely when segs includes the oldest segment of the store, since a
// dropped tombstone can no longer shadow anything beneath the merged run.
// The entries are slices of the segments' record blocks, which are
// immutable and stay in memory while the result is referenced.
func mergeSegments(segs []*segment, dropTombstones bool) ([]entry, error) {
	sources := make([]iterator, 0, len(segs))
	total := 0
	for i := len(segs) - 1; i >= 0; i-- { // newest first
		it, err := segs[i].iter(nil, nil)
		if err != nil {
			return nil, err
		}
		sources = append(sources, it)
		total += segs[i].count
	}
	mi := newMergeIter(sources)
	out := make([]entry, 0, total)
	for {
		e, ok := mi.next()
		if !ok {
			return out, nil
		}
		if e.tombstone && dropTombstones {
			continue
		}
		out = append(out, e)
	}
}
