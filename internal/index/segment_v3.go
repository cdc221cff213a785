package index

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sort"
)

// Segment format v3: the block-max layout, the only encoding segments
// have. The outer shell is magic, gen, docs region, 64-term dictionary
// index, dict region and postings region. Each dictionary entry carries
// per-block skip metadata — last DocID, end byte offset, and the Pareto
// frontier of (TF, docLen) pairs from which a block-max term score
// bound can be computed for any corpus stats — and dense terms
// (df ≥ ndocs/8) switch from delta-varint postings to a bitmap over the
// segment's sorted doc ordinals. See docs/segment-format.md for the
// byte layout.
const (
	segmentMagicV3 = 0x5155 // "QU": v3, block-max skip layout

	// postingsBlockSize is the number of postings per skip block. Skip
	// entries and block-max bounds are kept per block; WAND decodes or
	// skips whole blocks. Small blocks keep the decode floor of a top-k
	// query near k·blockSize postings (each winner drags in its whole
	// block), at the price of one ~6-byte skip entry per block — the
	// granularity where BenchmarkSearchScaling's 100×-corpus work bound
	// actually holds.
	postingsBlockSize = 8
)

// TFDL is one (term frequency, document length) pair. A block's skip
// entry stores the Pareto frontier of its postings' pairs: TermScore is
// monotone increasing in TF and decreasing in docLen, so the frontier
// (kept in strictly-ascending TF and strictly-ascending DL order) is
// exactly the set of pairs that can achieve the block maximum under some
// corpus stats, and max over it is an exact stats-independent bound.
type TFDL struct {
	TF uint32
	DL uint32
}

// BlockSkip is one parsed skip entry: the block's last document, its end
// byte offset (blob-relative for delta terms, stream-relative for bitmap
// terms; unused for materialized posting lists), and the block's
// score-bound frontier.
type BlockSkip struct {
	LastDoc  DocID
	EndOff   int
	Frontier []TFDL
}

// v3BlockLen returns the number of postings in block bi of a df-long
// list.
func v3BlockLen(bi, df int) int {
	if n := df - bi*postingsBlockSize; n < postingsBlockSize {
		return n
	}
	return postingsBlockSize
}

// sortedDocIDs returns the covered documents in ascending order.
func sortedDocIDs(docLens map[DocID]uint32) []DocID {
	docs := make([]DocID, 0, len(docLens))
	for d := range docLens {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	return docs
}

// blockFrontier reduces a block's (TF, docLen) pairs to their Pareto
// frontier in place and returns the surviving subslice: TF strictly
// ascending, DL strictly ascending, last pair holding the block-max TF.
// A pair dominates another when its TF is ≥ and its DL is ≤; dominated
// pairs can never achieve the block maximum for any stats, so dropping
// them keeps the bound exact. Both the encoder and the decode-time
// validator use this, so the canonical form is enforced end to end.
func blockFrontier(pairs []TFDL) []TFDL {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].TF != pairs[j].TF {
			return pairs[i].TF < pairs[j].TF
		}
		return pairs[i].DL < pairs[j].DL
	})
	// Keep the min-DL pair of each TF run.
	n := 0
	for i := range pairs {
		if n == 0 || pairs[i].TF != pairs[n-1].TF {
			pairs[n] = pairs[i]
			n++
		}
	}
	pairs = pairs[:n]
	// Right-to-left suffix-minima walk: a pair survives only if its DL is
	// strictly below every higher-TF survivor's.
	w := len(pairs)
	minDL := ^uint32(0)
	for i := len(pairs) - 1; i >= 0; i-- {
		if i == len(pairs)-1 || pairs[i].DL < minDL {
			w--
			pairs[w] = pairs[i]
			if pairs[w].DL < minDL {
				minDL = pairs[w].DL
			}
		}
	}
	return pairs[w:]
}

// appendTermV3 encodes one term's dictionary entry and postings blob.
// Delta terms chain doc gaps across block boundaries (doc gap, TF,
// npos, position gaps per posting); bitmap terms emit a bitmap over the
// segment's doc ordinals followed by a (TF, positions) stream. docLen for frontier pairs falls back to 0 when the doc is not
// covered (Validate rejects such segments separately; 0 only inflates
// the bound, which stays safe).
func appendTermV3(dict, posts []byte, term string, pl PostingList, docLens map[DocID]uint32, docsSorted []DocID, pairs *[]TFDL) ([]byte, []byte) {
	df := len(pl)
	enc := uint64(0)
	if df*8 >= len(docsSorted) && postingDocsCovered(pl, docLens) {
		enc = 1
	}
	nblocks := (df + postingsBlockSize - 1) / postingsBlockSize
	type skipRec struct {
		lastDoc  DocID
		endOff   int
		frontier []TFDL
	}
	skips := make([]skipRec, 0, nblocks)

	var blob []byte
	var bm, stream []byte
	if enc == 1 {
		bm = make([]byte, (len(docsSorted)+7)/8)
	}
	prevDoc := uint64(0)
	ord := 0
	for b := 0; b < nblocks; b++ {
		lo := b * postingsBlockSize
		hi := lo + v3BlockLen(b, df)
		*pairs = (*pairs)[:0]
		for i := lo; i < hi; i++ {
			p := pl[i]
			if enc == 0 {
				blob = binary.AppendUvarint(blob, uint64(p.Doc)-prevDoc)
				prevDoc = uint64(p.Doc)
				blob = binary.AppendUvarint(blob, uint64(p.TF))
				blob = appendPositions(blob, p.Positions)
			} else {
				for docsSorted[ord] < p.Doc {
					ord++
				}
				bm[ord>>3] |= 1 << uint(ord&7)
				ord++
				stream = binary.AppendUvarint(stream, uint64(p.TF))
				stream = appendPositions(stream, p.Positions)
			}
			*pairs = append(*pairs, TFDL{p.TF, docLens[p.Doc]})
		}
		end := len(blob)
		if enc == 1 {
			end = len(stream)
		}
		fr := blockFrontier(*pairs)
		skips = append(skips, skipRec{pl[hi-1].Doc, end, append([]TFDL(nil), fr...)})
	}
	if enc == 1 {
		blob = binary.AppendUvarint(nil, uint64(len(bm)))
		blob = append(blob, bm...)
		blob = append(blob, stream...)
	}

	dict = binary.AppendUvarint(dict, uint64(len(term)))
	dict = append(dict, term...)
	dict = binary.AppendUvarint(dict, enc)
	dict = binary.AppendUvarint(dict, uint64(df))
	dict = binary.AppendUvarint(dict, uint64(len(blob)))
	prevLast, prevEnd := uint64(0), 0
	for _, sk := range skips {
		dict = binary.AppendUvarint(dict, uint64(sk.lastDoc)-prevLast)
		dict = binary.AppendUvarint(dict, uint64(sk.endOff-prevEnd))
		prevLast, prevEnd = uint64(sk.lastDoc), sk.endOff
		dict = binary.AppendUvarint(dict, uint64(len(sk.frontier)))
		for _, p := range sk.frontier {
			dict = binary.AppendUvarint(dict, uint64(p.TF))
			dict = binary.AppendUvarint(dict, uint64(p.DL))
		}
	}
	return dict, append(posts, blob...)
}

// appendPositions emits npos followed by delta-encoded positions.
func appendPositions(out []byte, positions []uint32) []byte {
	out = binary.AppendUvarint(out, uint64(len(positions)))
	prev := uint64(0)
	for _, pos := range positions {
		out = binary.AppendUvarint(out, uint64(pos)-prev)
		prev = uint64(pos)
	}
	return out
}

// postingDocsCovered reports whether every posting doc has a length
// entry — the precondition for bitmap encoding (the bitmap indexes into
// the sorted covered-doc list).
func postingDocsCovered(pl PostingList, docLens map[DocID]uint32) bool {
	for _, p := range pl {
		if _, ok := docLens[p.Doc]; !ok {
			return false
		}
	}
	return true
}

// encodeV3 serializes a built segment in the v3 block-max layout.
func (s *Segment) encodeV3() []byte {
	out := binary.AppendUvarint(nil, segmentMagicV3)
	out = binary.AppendUvarint(out, s.Gen)
	out = appendDocLens(out, s.DocLens)

	terms := s.TermsSorted()
	out = binary.AppendUvarint(out, uint64(len(terms)))
	if len(terms) == 0 {
		return out
	}
	docsSorted := sortedDocIDs(s.DocLens)

	var dict, posts []byte
	type blockMeta struct {
		firstTerm string
		dictOff   int
		postOff   int
	}
	blocks := make([]blockMeta, 0, (len(terms)+dictBlockSize-1)/dictBlockSize)
	var pairs []TFDL
	for i, t := range terms {
		if i%dictBlockSize == 0 {
			blocks = append(blocks, blockMeta{t, len(dict), len(posts)})
		}
		dict, posts = appendTermV3(dict, posts, t, s.Terms[t], s.DocLens, docsSorted, &pairs)
	}
	out = binary.AppendUvarint(out, uint64(len(blocks)))
	for _, b := range blocks {
		out = binary.AppendUvarint(out, uint64(len(b.firstTerm)))
		out = append(out, b.firstTerm...)
		out = binary.AppendUvarint(out, uint64(b.dictOff))
		out = binary.AppendUvarint(out, uint64(b.postOff))
	}
	out = binary.AppendUvarint(out, uint64(len(dict)))
	out = append(out, dict...)
	out = binary.AppendUvarint(out, uint64(len(posts)))
	out = append(out, posts...)
	return out
}

// appendDocLens emits the docs region: sorted doc IDs, delta-encoded,
// each followed by its analyzed length.
func appendDocLens(out []byte, docLens map[DocID]uint32) []byte {
	docs := sortedDocIDs(docLens)
	out = binary.AppendUvarint(out, uint64(len(docs)))
	prev := uint64(0)
	for _, d := range docs {
		out = binary.AppendUvarint(out, uint64(d)-prev)
		prev = uint64(d)
		out = binary.AppendUvarint(out, uint64(docLens[d]))
	}
	return out
}

// decodeDocLens parses the docs region into the map and also returns the
// doc IDs in encounter order, enforcing the strictly ascending order
// bitmaps index into, plus the remaining bytes.
func decodeDocLens(data []byte, into map[DocID]uint32) ([]byte, []DocID, error) {
	ndocs, n := binary.Uvarint(data)
	if n <= 0 || ndocs > uint64(len(data))/2 {
		return nil, nil, errCorruptSegment
	}
	data = data[n:]
	docs := make([]DocID, 0, ndocs)
	prev := uint64(0)
	for i := uint64(0); i < ndocs; i++ {
		gap, n := binary.Uvarint(data)
		if n <= 0 || (i > 0 && gap == 0) || gap > 1<<32-1 {
			return nil, nil, errCorruptSegment
		}
		data = data[n:]
		doc := prev + gap
		if doc > 1<<32-1 {
			return nil, nil, errCorruptSegment
		}
		prev = doc
		dl, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, errCorruptSegment
		}
		data = data[n:]
		into[DocID(doc)] = uint32(dl)
		docs = append(docs, DocID(doc))
	}
	return data, docs, nil
}

// decodeSegmentV3 parses the v3 layout. raw is the full encoding
// (including magic); data starts after the magic.
func decodeSegmentV3(raw, data []byte) (*Segment, error) {
	gen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorruptSegment
	}
	data = data[n:]

	docLens := make(map[DocID]uint32)
	data, docsSorted, err := decodeDocLens(data, docLens)
	if err != nil {
		return nil, err
	}

	nterms, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorruptSegment
	}
	data = data[n:]
	if nterms == 0 {
		if len(data) != 0 {
			return nil, errCorruptSegment
		}
		seg := NewSegment(gen)
		seg.DocLens = docLens
		return seg, nil
	}
	if nterms > uint64(len(data))/2 {
		return nil, errCorruptSegment
	}

	nblocks, n := binary.Uvarint(data)
	if n <= 0 || nblocks == 0 || nblocks > nterms || nblocks > uint64(len(data))/3 {
		return nil, errCorruptSegment
	}
	data = data[n:]
	blocks := make([]lazyBlock, 0, nblocks)
	for i := uint64(0); i < nblocks; i++ {
		tlen, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < tlen {
			return nil, errCorruptSegment
		}
		first := data[n : n+int(tlen)]
		data = data[n+int(tlen):]
		dictOff, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		data = data[n:]
		postOff, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		data = data[n:]
		blocks = append(blocks, lazyBlock{firstTerm: first, dictOff: int(dictOff), postOff: int(postOff)})
	}

	dictLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < dictLen {
		return nil, errCorruptSegment
	}
	dict := data[n : n+int(dictLen)]
	data = data[n+int(dictLen):]
	postLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < postLen {
		return nil, errCorruptSegment
	}
	posts := data[n : n+int(postLen)]
	if len(data[n+int(postLen):]) != 0 {
		return nil, errCorruptSegment
	}

	if err := validateLazyRegionsV3(dict, posts, int(nterms), blocks, docLens, docsSorted); err != nil {
		return nil, err
	}

	return &Segment{
		Gen:     gen,
		DocLens: docLens,
		lazy: &lazySegment{
			raw:        raw,
			blocks:     blocks,
			dict:       dict,
			posts:      posts,
			nterms:     int(nterms),
			docsSorted: docsSorted,
		},
	}, nil
}

// dictEntryV3 is one parsed v3 dictionary entry header. skipsRaw is the
// undecoded skip-entry window (aliasing the dict region); parseSkipsV3
// turns it into []BlockSkip.
type dictEntryV3 struct {
	term     []byte
	enc      uint64 // 0 = delta blocks, 1 = bitmap
	df       int
	blobLen  int
	skipsRaw []byte
}

// nextDictEntryV3 parses one v3 dictionary entry, structurally checking
// the skip entries while locating their extent, and returns the
// remaining dictionary bytes.
func nextDictEntryV3(dict []byte) (e dictEntryV3, rest []byte, err error) {
	tlen, n := binary.Uvarint(dict)
	if n <= 0 || uint64(len(dict)-n) < tlen {
		return e, nil, errCorruptSegment
	}
	e.term = dict[n : n+int(tlen)]
	dict = dict[n+int(tlen):]
	enc, n := binary.Uvarint(dict)
	if n <= 0 || enc > 1 {
		return e, nil, errCorruptSegment
	}
	dict = dict[n:]
	df, n := binary.Uvarint(dict)
	if n <= 0 || df == 0 || df > 1<<31 {
		return e, nil, errCorruptSegment
	}
	dict = dict[n:]
	blobLen, n := binary.Uvarint(dict)
	if n <= 0 || blobLen > 1<<31 {
		return e, nil, errCorruptSegment
	}
	dict = dict[n:]
	e.enc, e.df, e.blobLen = enc, int(df), int(blobLen)

	nskips := (e.df + postingsBlockSize - 1) / postingsBlockSize
	start := dict
	for i := 0; i < nskips; i++ {
		gap, n := binary.Uvarint(dict)
		if n <= 0 || (i > 0 && gap == 0) {
			return e, nil, errCorruptSegment
		}
		dict = dict[n:]
		eo, n := binary.Uvarint(dict)
		if n <= 0 || eo == 0 {
			return e, nil, errCorruptSegment
		}
		dict = dict[n:]
		np, n := binary.Uvarint(dict)
		if n <= 0 || np == 0 || np > uint64(v3BlockLen(i, e.df)) {
			return e, nil, errCorruptSegment
		}
		dict = dict[n:]
		for j := uint64(0); j < 2*np; j++ {
			if _, n = binary.Uvarint(dict); n <= 0 {
				return e, nil, errCorruptSegment
			}
			dict = dict[n:]
		}
	}
	e.skipsRaw = start[:len(start)-len(dict)]
	return e, dict, nil
}

// parseSkipsV3 decodes a dictionary entry's skip entries into absolute
// form, enforcing the monotonic invariants cursors rely on: last DocIDs
// strictly ascending and 32-bit, end offsets strictly ascending, and
// each frontier in canonical (TF and DL both strictly ascending) order.
func parseSkipsV3(raw []byte, df int) ([]BlockSkip, error) {
	nskips := (df + postingsBlockSize - 1) / postingsBlockSize
	skips := make([]BlockSkip, 0, nskips)
	lastDoc, endOff := uint64(0), 0
	for i := 0; i < nskips; i++ {
		gap, n := binary.Uvarint(raw)
		if n <= 0 || (i > 0 && gap == 0) {
			return nil, errCorruptSegment
		}
		raw = raw[n:]
		lastDoc += gap
		if lastDoc > 1<<32-1 {
			return nil, errCorruptSegment
		}
		eo, n := binary.Uvarint(raw)
		if n <= 0 || eo == 0 || eo > 1<<31 {
			return nil, errCorruptSegment
		}
		raw = raw[n:]
		endOff += int(eo)
		np, n := binary.Uvarint(raw)
		if n <= 0 || np == 0 || np > uint64(v3BlockLen(i, df)) {
			return nil, errCorruptSegment
		}
		raw = raw[n:]
		frontier := make([]TFDL, 0, np)
		for j := uint64(0); j < np; j++ {
			tf, n := binary.Uvarint(raw)
			if n <= 0 {
				return nil, errCorruptSegment
			}
			raw = raw[n:]
			dl, n := binary.Uvarint(raw)
			if n <= 0 {
				return nil, errCorruptSegment
			}
			raw = raw[n:]
			if tf > 1<<32-1 || dl > 1<<32-1 {
				return nil, errCorruptSegment
			}
			if j > 0 {
				prev := frontier[j-1]
				if uint32(tf) <= prev.TF || uint32(dl) <= prev.DL {
					return nil, errCorruptSegment
				}
			}
			frontier = append(frontier, TFDL{uint32(tf), uint32(dl)})
		}
		skips = append(skips, BlockSkip{LastDoc: DocID(lastDoc), EndOff: endOff, Frontier: frontier})
	}
	if len(raw) != 0 {
		return nil, errCorruptSegment
	}
	return skips, nil
}

// validateLazyRegionsV3 walks the dictionary and postings regions once
// at decode time: dictionary entries must parse with strictly sorted
// terms and a count matching nterms, blobs must tile the postings region
// exactly, and each block-index record must agree exactly with the walk
// (its first term and both offsets land on the entry the walk reaches at
// that stride) so lookups can trust the index. It also re-derives every
// skip entry (last DocID, end offset, frontier) from the postings bytes
// and requires exact agreement, so lying block-max bounds are rejected
// up front rather than silently corrupting top-k results. Any structural
// or metadata lie fails the whole decode: a byzantine worker's digest
// covers its corrupt bytes, so hash verification alone cannot catch it.
func validateLazyRegionsV3(dict, posts []byte, nterms int, blocks []lazyBlock, docLens map[DocID]uint32, docsSorted []DocID) error {
	var prev []byte
	count, postOff := 0, 0
	dictLen := len(dict)
	var pairs []TFDL
	for len(dict) > 0 {
		dictOff := dictLen - len(dict)
		e, rest, err := nextDictEntryV3(dict)
		if err != nil {
			return err
		}
		if count%dictBlockSize == 0 {
			bi := count / dictBlockSize
			if bi >= len(blocks) {
				return errCorruptSegment
			}
			b := blocks[bi]
			if b.dictOff != dictOff || b.postOff != postOff || !bytes.Equal(b.firstTerm, e.term) {
				return errCorruptSegment
			}
		}
		if count > 0 && bytes.Compare(prev, e.term) >= 0 {
			return errCorruptSegment
		}
		skips, err := parseSkipsV3(e.skipsRaw, e.df)
		if err != nil {
			return err
		}
		if postOff+e.blobLen > len(posts) {
			return errCorruptSegment
		}
		if err := checkTermBlobV3(posts[postOff:postOff+e.blobLen], e, skips, docLens, docsSorted, &pairs); err != nil {
			return err
		}
		prev = e.term
		count++
		postOff += e.blobLen
		dict = rest
	}
	if count != nterms || postOff != len(posts) {
		return errCorruptSegment
	}
	if (count+dictBlockSize-1)/dictBlockSize != len(blocks) {
		return errCorruptSegment
	}
	return nil
}

// checkTermBlobV3 walks one term's postings blob, recomputing per block
// the last DocID, end offset, and canonical frontier, and requires exact
// equality with the claimed skip entries.
func checkTermBlobV3(blob []byte, e dictEntryV3, skips []BlockSkip, docLens map[DocID]uint32, docsSorted []DocID, pairs *[]TFDL) error {
	var bm, stream []byte
	if e.enc == 1 {
		bmLen, n := binary.Uvarint(blob)
		want := uint64((len(docsSorted) + 7) / 8)
		if n <= 0 || bmLen != want || uint64(len(blob)-n) < bmLen {
			return errCorruptSegment
		}
		bm = blob[n : n+int(bmLen)]
		stream = blob[n+int(bmLen):]
		// Trailing bits beyond the doc count must be zero and the set-bit
		// count must match df exactly.
		pop := 0
		for _, b := range bm {
			pop += bits.OnesCount8(b)
		}
		if pop != e.df {
			return errCorruptSegment
		}
		for ord := len(docsSorted); ord < len(bm)*8; ord++ {
			if bm[ord>>3]&(1<<uint(ord&7)) != 0 {
				return errCorruptSegment
			}
		}
	} else {
		stream = blob
	}

	b := stream
	off := 0
	prevDoc := uint64(0)
	ord := 0
	for bi, sk := range skips {
		blen := v3BlockLen(bi, e.df)
		*pairs = (*pairs)[:0]
		var lastDoc DocID
		for i := 0; i < blen; i++ {
			var doc DocID
			if e.enc == 0 {
				gap, n := binary.Uvarint(b)
				if n <= 0 || (bi+i > 0 && gap == 0) || gap > 1<<32-1 {
					return errCorruptSegment
				}
				prevDoc += gap
				if prevDoc > 1<<32-1 {
					return errCorruptSegment
				}
				b = b[n:]
				off += n
				doc = DocID(prevDoc)
			} else {
				for ord < len(docsSorted) && bm[ord>>3]&(1<<uint(ord&7)) == 0 {
					ord++
				}
				if ord >= len(docsSorted) {
					return errCorruptSegment
				}
				doc = docsSorted[ord]
				ord++
			}
			tf, n := binary.Uvarint(b)
			if n <= 0 || tf > 1<<32-1 {
				return errCorruptSegment
			}
			b = b[n:]
			off += n
			npos, n := binary.Uvarint(b)
			if n <= 0 {
				return errCorruptSegment
			}
			b = b[n:]
			off += n
			for j := uint64(0); j < npos; j++ {
				if _, n = binary.Uvarint(b); n <= 0 {
					return errCorruptSegment
				}
				b = b[n:]
				off += n
			}
			*pairs = append(*pairs, TFDL{uint32(tf), docLens[doc]})
			lastDoc = doc
		}
		fr := blockFrontier(*pairs)
		if sk.LastDoc != lastDoc || sk.EndOff != off || len(sk.Frontier) != len(fr) {
			return errCorruptSegment
		}
		for i := range fr {
			if fr[i] != sk.Frontier[i] {
				return errCorruptSegment
			}
		}
	}
	if len(b) != 0 {
		return errCorruptSegment
	}
	return nil
}

// decodeTermBlobV3 fully materializes one term's posting list (with
// positions) from its v3 blob. Only called on validated regions;
// structural errors are defensive.
func decodeTermBlobV3(blob []byte, e dictEntryV3, docsSorted []DocID) (PostingList, error) {
	var bm, stream []byte
	if e.enc == 1 {
		bmLen, n := binary.Uvarint(blob)
		if n <= 0 || uint64(len(blob)-n) < bmLen {
			return nil, errCorruptSegment
		}
		bm = blob[n : n+int(bmLen)]
		stream = blob[n+int(bmLen):]
	} else {
		stream = blob
	}
	pl := make(PostingList, 0, e.df)
	b := stream
	prevDoc := uint64(0)
	ord := 0
	for i := 0; i < e.df; i++ {
		var doc DocID
		if e.enc == 0 {
			gap, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errCorruptSegment
			}
			b = b[n:]
			prevDoc += gap
			doc = DocID(prevDoc)
		} else {
			for ord < len(docsSorted) && bm[ord>>3]&(1<<uint(ord&7)) == 0 {
				ord++
			}
			if ord >= len(docsSorted) {
				return nil, errCorruptSegment
			}
			doc = docsSorted[ord]
			ord++
		}
		tf, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		b = b[n:]
		npos, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		b = b[n:]
		var positions []uint32
		prevPos := uint64(0)
		for j := uint64(0); j < npos; j++ {
			pgap, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errCorruptSegment
			}
			b = b[n:]
			prevPos += pgap
			positions = append(positions, uint32(prevPos))
		}
		pl = append(pl, Posting{Doc: doc, TF: uint32(tf), Positions: positions})
	}
	if len(b) != 0 {
		return nil, errCorruptSegment
	}
	return pl, nil
}

// findV3 locates a term's v3 dictionary entry and postings blob without
// decoding any postings: binary search the block index, scan at most one
// 64-term block accumulating the postings offset.
func (l *lazySegment) findV3(term string) (e dictEntryV3, blob []byte, found bool, err error) {
	bi := sort.Search(len(l.blocks), func(i int) bool {
		return cmpBytesString(l.blocks[i].firstTerm, term) > 0
	}) - 1
	if bi < 0 {
		return e, nil, false, nil
	}
	b := l.blocks[bi]
	dictEnd := len(l.dict)
	if bi+1 < len(l.blocks) {
		dictEnd = l.blocks[bi+1].dictOff
	}
	dict := l.dict[b.dictOff:dictEnd]
	postOff := b.postOff
	for len(dict) > 0 {
		ent, rest, err := nextDictEntryV3(dict)
		if err != nil {
			return e, nil, false, err
		}
		dict = rest
		switch c := cmpBytesString(ent.term, term); {
		case c == 0:
			if postOff+ent.blobLen > len(l.posts) {
				return e, nil, false, errCorruptSegment
			}
			return ent, l.posts[postOff : postOff+ent.blobLen], true, nil
		case c > 0:
			return e, nil, false, nil
		}
		postOff += ent.blobLen
	}
	return e, nil, false, nil
}
