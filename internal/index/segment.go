package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Segment is an immutable inverted-index fragment: the postings produced
// by indexing one batch of documents. Worker bees build one delta segment
// per publish task; shards hold a chain of segments merged on read or by
// compaction. Gen orders segments: postings in a higher-Gen segment
// supersede a lower-Gen segment's postings for the same document, and a
// segment's DocLens set doubles as its tombstone set (any doc re-indexed
// here shadows its older postings everywhere, even for terms the new
// version no longer contains).
//
// Segments exist in two physical states behind one API:
//
//   - built: Terms holds every posting list in memory (Builder and Merge
//     produce these);
//   - lazy: the segment was decoded from its encoding and holds only the
//     raw bytes plus a block index; Postings decodes a single term's
//     list on first use and memoizes it.
//
// Both states are safe for concurrent readers. A segment must not be
// mutated after it is shared (the memoized views assume immutability).
type Segment struct {
	Gen     uint64
	Terms   map[string]PostingList // materialized postings; nil for lazy segments
	DocLens map[DocID]uint32       // analyzed token count per covered document

	mu      sync.RWMutex
	sorted  []string               // memoized TermsSorted result
	lazy    *lazySegment           // non-nil iff decoded from an encoding
	size    int64                  // memoized SizeBytes result (0 = not yet computed)
	cursors map[string]*cursorMeta // memoized per-term skip metadata (Cursor)
}

// NewSegment returns an empty segment with the given generation.
func NewSegment(gen uint64) *Segment {
	return &Segment{
		Gen:     gen,
		Terms:   make(map[string]PostingList),
		DocLens: make(map[DocID]uint32),
	}
}

// Builder accumulates documents into a segment.
type Builder struct {
	seg *Segment
}

// NewBuilder creates a segment builder with the given generation.
func NewBuilder(gen uint64) *Builder {
	return &Builder{seg: NewSegment(gen)}
}

// Add analyzes and indexes one document. Re-adding a DocID replaces its
// postings within this builder.
func (b *Builder) Add(doc DocID, text string) {
	if _, dup := b.seg.DocLens[doc]; dup {
		// Rebuild without the stale postings of this doc.
		for term, pl := range b.seg.Terms {
			b.seg.Terms[term] = dropDocs(pl, map[DocID]bool{doc: true})
			if len(b.seg.Terms[term]) == 0 {
				delete(b.seg.Terms, term)
			}
		}
	}
	tokens := Analyze(text)
	b.seg.DocLens[doc] = uint32(len(tokens))
	byTerm := make(map[string][]uint32)
	for _, tok := range tokens {
		byTerm[tok.Term] = append(byTerm[tok.Term], tok.Pos)
	}
	for term, positions := range byTerm {
		p := Posting{Doc: doc, TF: uint32(len(positions)), Positions: positions}
		pl := b.seg.Terms[term]
		idx := sort.Search(len(pl), func(i int) bool { return pl[i].Doc >= doc })
		pl = append(pl, Posting{})
		copy(pl[idx+1:], pl[idx:])
		pl[idx] = p
		b.seg.Terms[term] = pl
	}
}

// DocCount returns the number of documents added so far.
func (b *Builder) DocCount() int { return len(b.seg.DocLens) }

// Build finalizes and returns the segment. The builder must not be used
// afterwards.
func (b *Builder) Build() *Segment {
	seg := b.seg
	b.seg = nil
	return seg
}

// TermsSorted returns the segment's terms in lexicographic order. The
// slice is computed once and memoized (segments are immutable); callers
// must not modify it.
func (s *Segment) TermsSorted() []string {
	s.mu.RLock()
	sorted := s.sorted
	s.mu.RUnlock()
	if sorted != nil {
		return sorted
	}
	var out []string
	if s.lazy != nil {
		out = make([]string, 0, s.lazy.nterms)
		dict := s.lazy.dict
		for len(dict) > 0 {
			e, rest, err := nextDictEntryV3(dict)
			if err != nil {
				break // dict region is validated at decode; defensive only
			}
			out = append(out, string(e.term))
			dict = rest
		}
	} else {
		out = make([]string, 0, len(s.Terms))
		for t := range s.Terms {
			out = append(out, t)
		}
		sort.Strings(out)
	}
	s.mu.Lock()
	s.sorted = out
	s.mu.Unlock()
	return out
}

// NumTerms returns the number of distinct terms in the segment without
// decoding any postings.
func (s *Segment) NumTerms() int {
	if s.lazy != nil {
		return s.lazy.nterms
	}
	return len(s.Terms)
}

// Postings returns the posting list for a term (nil if absent). On a lazy
// segment only the requested term's list is decoded; the result is
// memoized so repeated lookups are map-hit cheap. Decode errors are
// unreachable for segments produced by DecodeSegment (which structurally
// validates both regions up front); defensively they surface as an absent
// term here and as an error from Validate.
func (s *Segment) Postings(term string) PostingList {
	if s.lazy == nil {
		return s.Terms[term]
	}
	s.mu.RLock()
	pl, ok := s.lazy.cache[term]
	s.mu.RUnlock()
	if ok {
		return pl
	}
	pl, found, err := s.lazy.lookup(term)
	if err != nil || !found {
		return nil
	}
	s.mu.Lock()
	if s.lazy.cache == nil {
		s.lazy.cache = make(map[string]PostingList)
	}
	// Re-check under the write lock: postingsMap may have installed a
	// complete cache while our lookup ran, and maps it has handed out are
	// iterated without the lock — they must never be written again. A
	// complete cache always already holds this term, so skipping the
	// duplicate write preserves that invariant.
	if cached, ok := s.lazy.cache[term]; ok {
		s.mu.Unlock()
		return cached
	}
	s.lazy.cache[term] = pl
	s.mu.Unlock()
	return pl
}

// postingsMap returns the complete term → postings view, fully decoding a
// lazy segment (Merge, Validate, and compaction need every list). The
// decoded map is memoized as the lazy segment's cache.
func (s *Segment) postingsMap() (map[string]PostingList, error) {
	if s.lazy == nil {
		return s.Terms, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lazy.cache) == s.lazy.nterms {
		return s.lazy.cache, nil
	}
	m, err := s.lazy.decodeAll()
	if err != nil {
		return nil, err
	}
	s.lazy.cache = m
	return m, nil
}

// Covers reports whether the segment indexes (or tombstones) a document.
func (s *Segment) Covers(doc DocID) bool {
	_, ok := s.DocLens[doc]
	return ok
}

// Per-entry constants for SizeBytes: a map entry's bucket overhead, one
// Posting struct (Doc + TF + the Positions slice header), and one DocLens
// entry. Approximations of the amd64 in-memory footprint.
const (
	sizeMapEntry = 48
	sizePosting  = 40
	sizeDocLen   = 16
)

// SizeBytes estimates the segment's resident memory footprint. Cache
// eviction budgets are charged against it, so it is deliberately cheap
// and stable: a lazy segment is charged its raw encoding (posting
// lists or blocks a query later decodes and memoizes are NOT tracked —
// they can exceed the varint-packed raw bytes by a small constant
// factor, so the budget bounds the encoded working set, not every
// decoded view), a built segment its materialized posting lists. A lazy
// segment additionally carries the materialized sorted-doc slice
// (bitmap ordinal → DocID) for block-granular decoding, so that is
// charged too. Segments are immutable once shared, so the walk runs once
// and is memoized.
func (s *Segment) SizeBytes() int64 {
	s.mu.RLock()
	size := s.size
	s.mu.RUnlock()
	if size != 0 {
		return size
	}
	size = int64(len(s.DocLens)) * sizeDocLen
	s.mu.RLock()
	lazy := s.lazy
	s.mu.RUnlock()
	if lazy != nil {
		size += int64(len(lazy.raw)) + int64(len(lazy.docsSorted))*4
	} else {
		for term, pl := range s.Terms {
			size += int64(len(term)) + sizeMapEntry + int64(len(pl))*sizePosting
			for i := range pl {
				size += int64(len(pl[i].Positions)) * 4
			}
		}
	}
	if size == 0 {
		size = 1 // empty segments still occupy a cache slot
	}
	s.mu.Lock()
	s.size = size
	s.mu.Unlock()
	return size
}

var errCorruptSegment = errors.New("index: corrupt segment encoding")

// dictBlockSize is the number of terms per dictionary block. Lookups
// binary-search the block index, then scan at most one block; postings
// byte offsets accumulate within the block.
const dictBlockSize = 64

// Encode serializes the segment deterministically (sorted terms and doc
// IDs) in the v3 block-max layout, so that every honest worker bee
// produces byte-identical segments — the property commit–reveal voting
// relies on. A lazily decoded segment returns a copy of its original
// bytes (decode → encode is exactly the identity). See
// docs/segment-format.md for the byte layout.
func (s *Segment) Encode() []byte {
	s.mu.RLock()
	if s.lazy != nil {
		raw := s.lazy.raw
		s.mu.RUnlock()
		return append([]byte(nil), raw...)
	}
	s.mu.RUnlock()
	return s.encodeV3()
}

// DecodeSegment parses an encoded segment into a lazy segment whose
// posting lists decode on demand. The whole encoding is validated up
// front; any magic other than the v3 layout's is rejected.
func DecodeSegment(data []byte) (*Segment, error) {
	magic, n := binary.Uvarint(data)
	if n <= 0 || magic != segmentMagicV3 {
		return nil, errCorruptSegment
	}
	return decodeSegmentV3(data, data[n:])
}

// lazySegment is the in-memory view of an encoded segment: raw bytes, a
// parsed block index, and sub-slices for the dictionary and postings
// regions. Individual posting lists are decoded on demand.
type lazySegment struct {
	raw        []byte // the full original encoding (Encode returns a copy)
	blocks     []lazyBlock
	dict       []byte // dictionary region: see nextDictEntryV3
	posts      []byte // postings region: concatenated posting blobs
	nterms     int
	docsSorted []DocID // covered docs ascending (bitmap ordinals)

	cache map[string]PostingList // memoized decoded lists (guarded by Segment.mu)
}

type lazyBlock struct {
	firstTerm []byte // aliases raw
	dictOff   int    // byte offset of the block's first dict entry
	postOff   int    // byte offset of the block's first postings blob
}

// cmpBytesString compares b to s lexicographically without allocating.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// lookup locates the term's dictionary entry (findV3) and decodes
// exactly one posting list on a hit.
func (l *lazySegment) lookup(term string) (PostingList, bool, error) {
	e, blob, found, err := l.findV3(term)
	if err != nil || !found {
		return nil, found, err
	}
	pl, err := decodeTermBlobV3(blob, e, l.docsSorted)
	if err != nil {
		return nil, false, err
	}
	if err := pl.sortCheck(); err != nil {
		return nil, false, err
	}
	return pl, true, nil
}

// decodeAll decodes every posting list in dictionary order. Caller holds
// the owning Segment's write lock.
func (l *lazySegment) decodeAll() (map[string]PostingList, error) {
	m := make(map[string]PostingList, l.nterms)
	dict := l.dict
	postOff := 0
	for len(dict) > 0 {
		e, rest, err := nextDictEntryV3(dict)
		if err != nil {
			return nil, err
		}
		dict = rest
		if postOff+e.blobLen > len(l.posts) {
			return nil, errCorruptSegment
		}
		pl, err := decodeTermBlobV3(l.posts[postOff:postOff+e.blobLen], e, l.docsSorted)
		if err != nil {
			return nil, err
		}
		if err := pl.sortCheck(); err != nil {
			return nil, err
		}
		m[string(e.term)] = pl
		postOff += e.blobLen
	}
	if len(m) != l.nterms {
		return nil, errCorruptSegment
	}
	return m, nil
}

// Validate checks internal consistency: decodable, sorted postings and
// every posting doc covered by DocLens.
func (s *Segment) Validate() error {
	terms, err := s.postingsMap()
	if err != nil {
		return err
	}
	for term, pl := range terms {
		if err := pl.sortCheck(); err != nil {
			return fmt.Errorf("term %q: %w", term, err)
		}
		for _, p := range pl {
			if _, ok := s.DocLens[p.Doc]; !ok {
				return fmt.Errorf("index: term %q posting doc %d lacks doc length", term, p.Doc)
			}
			if p.TF == 0 {
				return fmt.Errorf("index: term %q doc %d zero TF", term, p.Doc)
			}
		}
	}
	return nil
}

// Restrict returns a segment holding only the terms keep accepts. The
// DocLens set is retained IN FULL: it is the segment's tombstone set,
// and a covered document must keep shadowing its older postings in
// every chain — even for terms the restricted view drops — or stale
// postings would resurface after later merges. Posting lists are shared
// with the receiver (segments are immutable). Gen is preserved, so the
// restricted segment keeps its place in merge precedence.
//
// This is what makes sharded compaction cheap: a shard's merged run
// only needs the terms that hash to that shard (queries route term →
// shard before ever reading a chain), so the bytes a merge rewrites
// shrink from the whole batch segment to the shard's share of it.
func (s *Segment) Restrict(keep func(term string) bool) *Segment {
	terms, err := s.postingsMap()
	if err != nil {
		// A corrupt lazy segment contributes nothing to a merge either;
		// returning it unrestricted keeps Restrict total.
		return s
	}
	out := NewSegment(s.Gen)
	for term, pl := range terms {
		if keep(term) {
			out.Terms[term] = pl
		}
	}
	for d, l := range s.DocLens {
		out.DocLens[d] = l
	}
	return out
}

// Merge combines segments into one. Segments are applied oldest
// generation first; a newer segment's covered documents shadow all their
// older postings (tombstone semantics), and its postings replace older
// ones per term. Ties on Gen are broken by input order. Merging a single
// segment returns it unchanged (segments are immutable), which keeps a
// compacted one-segment chain fully lazy. Lazy inputs are materialized; a
// lazy input whose posting bytes fail to decode is skipped entirely —
// neither its postings nor its tombstones apply — so corruption can hide
// documents it carried but never deletes older valid ones.
func Merge(segments []*Segment) *Segment {
	if len(segments) == 0 {
		return NewSegment(0)
	}
	if len(segments) == 1 {
		return segments[0]
	}
	ordered := append([]*Segment(nil), segments...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Gen < ordered[j].Gen })

	out := NewSegment(ordered[len(ordered)-1].Gen)
	for _, seg := range ordered {
		terms, err := seg.postingsMap()
		if err != nil {
			continue
		}
		// Tombstone every doc this segment covers.
		dead := make(map[DocID]bool, len(seg.DocLens))
		for d := range seg.DocLens {
			dead[d] = true
		}
		for term, pl := range out.Terms {
			out.Terms[term] = dropDocs(pl, dead)
			if len(out.Terms[term]) == 0 {
				delete(out.Terms, term)
			}
		}
		for term, pl := range terms {
			out.Terms[term] = mergePostingLists(out.Terms[term], pl)
		}
		for d, l := range seg.DocLens {
			out.DocLens[d] = l
		}
	}
	return out
}
