package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func buildSeg(gen uint64, docs map[DocID]string) *Segment {
	b := NewBuilder(gen)
	// Deterministic insertion order.
	var ids []DocID
	for id := range docs {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		b.Add(id, docs[id])
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	seg := buildSeg(1, map[DocID]string{
		1: "decentralized search engine",
		2: "decentralized web content",
	})
	pl := seg.Postings(Stem("decentralized"))
	if len(pl) != 2 || pl[0].Doc != 1 || pl[1].Doc != 2 {
		t.Fatalf("postings = %+v", pl)
	}
	if seg.DocLens[1] != 3 || seg.DocLens[2] != 3 {
		t.Fatalf("doc lens = %v", seg.DocLens)
	}
	if err := seg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderTermFrequencyAndPositions(t *testing.T) {
	seg := buildSeg(1, map[DocID]string{7: "bee bee honey bee"})
	pl := seg.Postings("bee")
	if len(pl) != 1 {
		t.Fatalf("postings = %+v", pl)
	}
	p := pl[0]
	if p.TF != 3 {
		t.Fatalf("TF = %d, want 3", p.TF)
	}
	if len(p.Positions) != 3 || p.Positions[0] != 0 || p.Positions[1] != 1 || p.Positions[2] != 3 {
		t.Fatalf("positions = %v", p.Positions)
	}
}

func TestBuilderReAddReplacesDoc(t *testing.T) {
	b := NewBuilder(1)
	b.Add(5, "old content about bees")
	b.Add(5, "completely new stuff")
	seg := b.Build()
	if seg.Postings("bee") != nil {
		t.Fatal("stale postings survived re-add")
	}
	if seg.Postings("stuff") == nil {
		t.Fatal("new postings missing")
	}
	if b2 := seg.DocLens[5]; b2 != 3 {
		t.Fatalf("doc len = %d, want 3", b2)
	}
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	seg := buildSeg(42, map[DocID]string{
		1: "queen bee honey colony worker bee",
		9: "smart contract blockchain honey",
		3: "decentralized search on the decentralized web",
	})
	enc := seg.Encode()
	dec, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gen != 42 {
		t.Fatalf("gen = %d", dec.Gen)
	}
	if dec.NumTerms() != seg.NumTerms() {
		t.Fatalf("terms = %d, want %d", dec.NumTerms(), seg.NumTerms())
	}
	for term, pl := range seg.Terms {
		got := dec.Postings(term)
		if len(got) != len(pl) {
			t.Fatalf("term %q postings = %d, want %d", term, len(got), len(pl))
		}
		for i := range pl {
			if got[i].Doc != pl[i].Doc || got[i].TF != pl[i].TF {
				t.Fatalf("term %q posting %d mismatch", term, i)
			}
		}
	}
	if err := dec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentEncodeDeterministic(t *testing.T) {
	// Two builders adding the same docs in different orders must produce
	// byte-identical encodings — commit-reveal voting depends on it.
	a := NewBuilder(7)
	a.Add(1, "alpha beta gamma")
	a.Add(2, "beta delta")
	b := NewBuilder(7)
	b.Add(2, "beta delta")
	b.Add(1, "alpha beta gamma")
	if !bytes.Equal(a.Build().Encode(), b.Build().Encode()) {
		t.Fatal("segment encoding depends on insertion order")
	}
}

func TestDecodeSegmentCorrupt(t *testing.T) {
	if _, err := DecodeSegment(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := DecodeSegment([]byte{0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("bad magic should fail")
	}
	seg := buildSeg(1, map[DocID]string{1: "hello world"})
	enc := seg.Encode()
	if _, err := DecodeSegment(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated segment should fail")
	}
}

func TestMergeNewerGenerationWins(t *testing.T) {
	old := buildSeg(1, map[DocID]string{1: "honey bees everywhere", 2: "old other doc"})
	new1 := buildSeg(2, map[DocID]string{1: "fresh content no insects"})
	merged := Merge([]*Segment{old, new1})

	// Doc 1's old terms must be tombstoned even though gen 2 lacks them.
	if pl := merged.Postings(Stem("honey")); pl != nil {
		if _, found := pl.Find(1); found {
			t.Fatal("stale posting for doc 1 survived merge")
		}
	}
	if pl := merged.Postings("bee"); pl != nil {
		if _, found := pl.Find(1); found {
			t.Fatal("stale 'bee' posting survived")
		}
	}
	if merged.Postings("fresh") == nil {
		t.Fatal("new postings missing")
	}
	// Doc 2 untouched.
	if merged.Postings("old") == nil {
		t.Fatal("unrelated doc lost in merge")
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	s1 := buildSeg(1, map[DocID]string{1: "one two three"})
	s2 := buildSeg(2, map[DocID]string{2: "two three four"})
	s3 := buildSeg(3, map[DocID]string{1: "five six"})
	a := Merge([]*Segment{s1, s2, s3}).Encode()
	b := Merge([]*Segment{s3, s1, s2}).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("merge result depends on input order despite distinct gens")
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge(nil)
	if len(m.Terms) != 0 || m.Gen != 0 {
		t.Fatalf("merge of nothing = %+v", m)
	}
}

// roundTripPostings encodes pl as the only term of a segment and
// decodes it back. Every posting doc is covered; filler extra covered
// docs push the term below the bitmap threshold into delta encoding.
func roundTripPostings(pl PostingList, filler int) (PostingList, error) {
	seg := NewSegment(1)
	seg.Terms["t"] = pl
	for _, p := range pl {
		seg.DocLens[p.Doc] = p.TF
	}
	for d := DocID(1 << 31); len(seg.DocLens) < len(pl)+filler; d++ {
		seg.DocLens[d] = 1
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		return nil, err
	}
	return dec.Postings("t"), nil
}

func TestPostingsEncodeDecodeRoundTrip(t *testing.T) {
	pl := PostingList{
		{Doc: 3, TF: 2, Positions: []uint32{0, 9}},
		{Doc: 100, TF: 1, Positions: []uint32{4}},
		{Doc: 4000000, TF: 3, Positions: []uint32{1, 2, 3}},
	}
	for _, filler := range []int{0, 40} { // bitmap, then delta encoding
		dec, err := roundTripPostings(pl, filler)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != 3 || dec[2].Doc != 4000000 || dec[0].Positions[1] != 9 {
			t.Fatalf("filler %d: decoded = %+v", filler, dec)
		}
	}
}

func TestPostingsRoundTripProperty(t *testing.T) {
	f := func(docsRaw []uint32, tfRaw []uint8, filler uint8) bool {
		// Build a valid sorted posting list from arbitrary input; doc IDs
		// stay below the filler range.
		seen := map[uint32]bool{}
		var docs []uint32
		for _, d := range docsRaw {
			d %= 1 << 31
			if !seen[d] {
				seen[d] = true
				docs = append(docs, d)
			}
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		var pl PostingList
		for i, d := range docs {
			tf := uint32(1)
			if i < len(tfRaw) {
				tf = uint32(tfRaw[i]%5) + 1
			}
			positions := make([]uint32, tf)
			for p := range positions {
				positions[p] = uint32(p * 2)
			}
			pl = append(pl, Posting{Doc: DocID(d), TF: tf, Positions: positions})
		}
		if len(pl) == 0 {
			return true // an empty list is no term at all
		}
		dec, err := roundTripPostings(pl, int(filler))
		if err != nil || len(dec) != len(pl) {
			return false
		}
		for i := range pl {
			if dec[i].Doc != pl[i].Doc || dec[i].TF != pl[i].TF || len(dec[i].Positions) != len(pl[i].Positions) {
				return false
			}
			for j := range pl[i].Positions {
				if dec[i].Positions[j] != pl[i].Positions[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFindBinarySearch(t *testing.T) {
	pl := PostingList{{Doc: 2}, {Doc: 5}, {Doc: 9}}
	if _, ok := pl.Find(5); !ok {
		t.Fatal("Find(5) should succeed")
	}
	if _, ok := pl.Find(4); ok {
		t.Fatal("Find(4) should fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	seg := NewSegment(1)
	seg.Terms["x"] = PostingList{{Doc: 5, TF: 1}}
	// Doc 5 has no DocLen.
	if err := seg.Validate(); err == nil {
		t.Fatal("missing doc length should fail validation")
	}
	seg.DocLens[5] = 10
	if err := seg.Validate(); err != nil {
		t.Fatal(err)
	}
	seg.Terms["y"] = PostingList{{Doc: 9, TF: 0}}
	seg.DocLens[9] = 1
	if err := seg.Validate(); err == nil {
		t.Fatal("zero TF should fail validation")
	}
}

// TestSegmentRestrict covers the sharded-compaction primitive: dropped
// terms vanish, kept terms keep their postings, and — the subtle part —
// the full DocLens tombstone set survives, so a restricted segment still
// shadows a document's older postings for terms the restriction dropped.
func TestSegmentRestrict(t *testing.T) {
	old := buildSeg(1, map[DocID]string{
		1: "honey nectar clover",
		2: "honey meadow",
	})
	// Doc 1 revised: "nectar" gone, new term appears.
	rev := buildSeg(2, map[DocID]string{1: "honey orchard"})

	keepHoney := func(term string) bool { return term == Stem("honey") }
	r := rev.Restrict(keepHoney)
	if r.Gen != rev.Gen {
		t.Fatalf("restrict changed Gen: %d -> %d", rev.Gen, r.Gen)
	}
	if r.Postings(Stem("orchard")) != nil {
		t.Fatal("restricted segment kept a dropped term")
	}
	if got := r.Postings(Stem("honey")); len(got) != 1 || got[0].Doc != 1 {
		t.Fatalf("kept term postings = %+v", got)
	}
	if !r.Covers(1) {
		t.Fatal("restriction dropped the tombstone set")
	}

	// Merging the OLD full segment with the restricted revision must
	// still retire doc 1's stale "nectar" posting — same logical outcome
	// as merging with the unrestricted revision, for every kept term.
	m := Merge([]*Segment{old, r})
	if pl := m.Postings(Stem("nectar")); len(pl) != 0 {
		t.Fatalf("stale posting resurfaced through a restricted merge: %+v", pl)
	}
	want := Merge([]*Segment{old, rev})
	for _, term := range []string{Stem("honey"), Stem("meadow"), Stem("clover")} {
		a, b := m.Postings(term), want.Postings(term)
		if len(a) != len(b) {
			t.Fatalf("term %q diverged: %+v vs %+v", term, a, b)
		}
		for i := range a {
			if a[i].Doc != b[i].Doc || a[i].TF != b[i].TF {
				t.Fatalf("term %q posting %d diverged: %+v vs %+v", term, i, a, b)
			}
		}
	}

	// Restriction round-trips through the wire format.
	dec, err := DecodeSegment(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumTerms() != 1 || !dec.Covers(1) {
		t.Fatalf("decoded restricted segment = %d terms, covers(1)=%v", dec.NumTerms(), dec.Covers(1))
	}
}

// randomDocSegment builds a segment from pseudo-random documents so property
// tests cover many shapes (doc counts, term overlap, position spreads).
func randomDocSegment(seed uint64, gen uint64) *Segment {
	rng := xrand.New(seed + 1)
	b := NewBuilder(gen)
	ndocs := 1 + rng.Intn(12)
	for i := 0; i < ndocs; i++ {
		doc := DocID(1 + rng.Intn(500))
		nwords := 1 + rng.Intn(40)
		var text bytes.Buffer
		for w := 0; w < nwords; w++ {
			fmt.Fprintf(&text, "word%02d ", rng.Intn(30))
		}
		b.Add(doc, text.String())
	}
	return b.Build()
}

// segmentsLogicallyEqual compares two segments term by term through the
// public API, so a built and a lazily decoded segment can be checked
// against each other.
func segmentsLogicallyEqual(t *testing.T, a, b *Segment) {
	t.Helper()
	if a.Gen != b.Gen {
		t.Fatalf("gen mismatch: %d vs %d", a.Gen, b.Gen)
	}
	if len(a.DocLens) != len(b.DocLens) {
		t.Fatalf("doclens size: %d vs %d", len(a.DocLens), len(b.DocLens))
	}
	for d, l := range a.DocLens {
		if b.DocLens[d] != l {
			t.Fatalf("doclen doc %d: %d vs %d", d, l, b.DocLens[d])
		}
	}
	at, bt := a.TermsSorted(), b.TermsSorted()
	if len(at) != len(bt) {
		t.Fatalf("term count: %d vs %d", len(at), len(bt))
	}
	for i, term := range at {
		if bt[i] != term {
			t.Fatalf("term %d: %q vs %q", i, term, bt[i])
		}
		apl, bpl := a.Postings(term), b.Postings(term)
		if len(apl) != len(bpl) {
			t.Fatalf("term %q postings: %d vs %d", term, len(apl), len(bpl))
		}
		for j := range apl {
			if apl[j].Doc != bpl[j].Doc || apl[j].TF != bpl[j].TF {
				t.Fatalf("term %q posting %d: %+v vs %+v", term, j, apl[j], bpl[j])
			}
			if len(apl[j].Positions) != len(bpl[j].Positions) {
				t.Fatalf("term %q posting %d positions", term, j)
			}
			for p := range apl[j].Positions {
				if apl[j].Positions[p] != bpl[j].Positions[p] {
					t.Fatalf("term %q posting %d position %d", term, j, p)
				}
			}
		}
	}
}

// TestSegmentLazyMergeAgreesWithBuilt: merging lazily decoded segments
// must produce the same bytes as merging their builder-built originals.
func TestSegmentLazyMergeAgreesWithBuilt(t *testing.T) {
	var built, lazy []*Segment
	for i := 0; i < 4; i++ {
		s := randomDocSegment(uint64(100+i), uint64(i+1))
		built = append(built, s)
		d, err := DecodeSegment(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		lazy = append(lazy, d)
	}
	if !bytes.Equal(Merge(built).Encode(), Merge(lazy).Encode()) {
		t.Fatal("merge of lazy segments diverges from merge of built segments")
	}
}

// TestSegmentV2RoundTripProperty (named for the v2 format it first
// pinned): a segment survives any number of encode → decode cycles
// unchanged, and so does the merge of lazily decoded segments — a
// compacted chain re-encodes to the same bytes as the merge of the
// built originals and agrees with it term by term.
func TestSegmentV2RoundTripProperty(t *testing.T) {
	f := func(seed uint16, genRaw uint8) bool {
		older := randomDocSegment(uint64(seed), uint64(genRaw))
		newer := randomDocSegment(uint64(seed)+7919, uint64(genRaw)+1)

		enc := older.Encode()
		once, err := DecodeSegment(enc)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		twice, err := DecodeSegment(once.Encode())
		if err != nil {
			t.Logf("second decode: %v", err)
			return false
		}
		if !bytes.Equal(twice.Encode(), enc) {
			t.Log("second decode → encode not byte-identical")
			return false
		}
		segmentsLogicallyEqual(t, older, twice)

		decNewer, err := DecodeSegment(newer.Encode())
		if err != nil {
			t.Logf("decode newer: %v", err)
			return false
		}
		built := Merge([]*Segment{older, newer})
		merged := Merge([]*Segment{once, decNewer})
		mergedEnc := merged.Encode()
		if !bytes.Equal(mergedEnc, built.Encode()) {
			t.Log("merge of decoded segments diverges from merge of built segments")
			return false
		}
		dec, err := DecodeSegment(mergedEnc)
		if err != nil {
			t.Logf("decode merged: %v", err)
			return false
		}
		if !bytes.Equal(dec.Encode(), mergedEnc) {
			t.Log("merged decode → encode not byte-identical")
			return false
		}
		segmentsLogicallyEqual(t, built, dec)
		if err := dec.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentV2LargeDictionary (named for the v2 format it first pinned)
// exercises a multi-block dictionary after a restrict: 5k terms is ~80
// blocks at dictBlockSize 64; keeping every other term and re-encoding
// must rebuild the block index so kept terms are found at the new block
// boundaries and dropped ones miss cleanly.
func TestSegmentV2LargeDictionary(t *testing.T) {
	seg := NewSegment(3)
	for i := 0; i < 5000; i++ {
		term := fmt.Sprintf("term%05d", i)
		doc := DocID(i + 1)
		seg.Terms[term] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{uint32(i)}}}
		seg.DocLens[doc] = 1
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	even := func(term string) bool {
		var i int
		fmt.Sscanf(term, "term%05d", &i)
		return i%2 == 0
	}
	restricted, err := DecodeSegment(dec.Restrict(even).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if restricted.NumTerms() != 2500 {
		t.Fatalf("nterms = %d, want 2500", restricted.NumTerms())
	}
	if restricted.Gen != 3 || len(restricted.DocLens) != 5000 {
		t.Fatalf("gen=%d doclens=%d, want 3 and 5000", restricted.Gen, len(restricted.DocLens))
	}
	// Kept terms 0, 128, 256 open blocks 0, 1, 2 of the restricted
	// dictionary; 126 and 254 close blocks 0 and 1.
	for _, i := range []int{0, 2, 64, 126, 128, 130, 254, 256, 2500, 4996, 4998} {
		term := fmt.Sprintf("term%05d", i)
		pl := restricted.Postings(term)
		if len(pl) != 1 || pl[0].Doc != DocID(i+1) {
			t.Fatalf("kept term %q postings = %+v", term, pl)
		}
	}
	for _, i := range []int{1, 63, 65, 127, 129, 255, 2501, 4999} {
		term := fmt.Sprintf("term%05d", i)
		if pl := restricted.Postings(term); len(pl) != 0 {
			t.Fatalf("dropped term %q returned %+v", term, pl)
		}
	}
	if err := restricted.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSkipsCorruptSegment: a lazy segment whose posting bytes fail
// to decode must contribute nothing to a merge — in particular its
// tombstones must not delete older valid postings.
func TestMergeSkipsCorruptSegment(t *testing.T) {
	good := buildSeg(1, map[DocID]string{1: "alpha beta", 2: "gamma delta"})
	newer := buildSeg(2, map[DocID]string{1: "epsilon zeta"})
	dec, err := DecodeSegment(newer.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the first posting list's count varint: the dictionary still
	// validates (lengths unchanged) but every full decode now fails.
	dec.lazy.posts[0] = 0xFF
	if err := dec.Validate(); err == nil {
		t.Fatal("corrupted postings should fail Validate")
	}
	m := Merge([]*Segment{good, dec})
	pl := m.Postings(Stem("alpha"))
	if _, found := pl.Find(1); !found {
		t.Fatal("corrupt newer segment tombstoned doc 1's valid postings")
	}
	if m.Covers(1) && len(m.Postings(Stem("epsilon"))) != 0 {
		t.Fatal("corrupt segment contributed postings")
	}
}

// v3Header starts a v3 encoding: magic, gen and the docs region for
// docLens (doc ID → length), ascending.
func v3Header(docs ...[2]uint64) []byte {
	enc := binary.AppendUvarint(nil, segmentMagicV3)
	enc = binary.AppendUvarint(enc, 1) // gen
	enc = binary.AppendUvarint(enc, uint64(len(docs)))
	prev := uint64(0)
	for _, d := range docs {
		enc = binary.AppendUvarint(enc, d[0]-prev)
		enc = binary.AppendUvarint(enc, d[1])
		prev = d[0]
	}
	return enc
}

// TestDecodeHostileCounts: a tiny segment claiming an absurd count in
// any header field must be rejected with an error, not panic on a
// count-sized allocation.
func TestDecodeHostileCounts(t *testing.T) {
	huge := uint64(1 << 62)
	cases := map[string][]byte{
		"ndocs":   binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, segmentMagicV3), 1), huge),
		"nterms":  binary.AppendUvarint(v3Header(), huge),
		"nblocks": binary.AppendUvarint(binary.AppendUvarint(v3Header(), 1), huge),
		"dictLen": func() []byte {
			enc := binary.AppendUvarint(v3Header(), 1) // nterms
			enc = binary.AppendUvarint(enc, 1)         // nblocks
			enc = binary.AppendUvarint(enc, 1)         // block firstTermLen
			enc = append(enc, 'x')
			enc = binary.AppendUvarint(enc, 0) // dictOff
			enc = binary.AppendUvarint(enc, 0) // postOff
			return binary.AppendUvarint(enc, huge)
		}(),
	}
	for name, enc := range cases {
		if _, err := DecodeSegment(enc); err == nil {
			t.Errorf("hostile %s should fail decode", name)
		}
	}
}

// TestDecodeRejectsDocOverflow: a delta-encoded posting list whose
// accumulated doc IDs exceed 32 bits would truncate into non-ascending
// order on decode; the decode-time walk must reject it instead of
// letting lookups silently fail later. The skip entry is the one a
// truncating decoder would derive, so only the overflow check can
// catch the lie.
func TestDecodeRejectsDocOverflow(t *testing.T) {
	var blob []byte
	blob = binary.AppendUvarint(blob, 1)     // doc 1
	blob = binary.AppendUvarint(blob, 1)     // TF
	blob = binary.AppendUvarint(blob, 0)     // no positions
	blob = binary.AppendUvarint(blob, 1<<32) // gap → doc truncates to 1
	blob = binary.AppendUvarint(blob, 1)     // TF
	blob = binary.AppendUvarint(blob, 0)     // no positions

	var dict []byte
	dict = binary.AppendUvarint(dict, 1)
	dict = append(dict, 'x')
	dict = binary.AppendUvarint(dict, 0) // delta encoding
	dict = binary.AppendUvarint(dict, 2) // df
	dict = binary.AppendUvarint(dict, uint64(len(blob)))
	dict = binary.AppendUvarint(dict, 1)                 // lastDoc (truncated)
	dict = binary.AppendUvarint(dict, uint64(len(blob))) // endOff
	dict = binary.AppendUvarint(dict, 1)                 // one frontier pair
	dict = binary.AppendUvarint(dict, 1)                 // TF
	dict = binary.AppendUvarint(dict, 0)                 // DL (uncovered doc)

	enc := v3Header()
	enc = binary.AppendUvarint(enc, 1) // nterms
	enc = binary.AppendUvarint(enc, 1) // nblocks
	enc = binary.AppendUvarint(enc, 1) // block firstTermLen
	enc = append(enc, 'x')
	enc = binary.AppendUvarint(enc, 0) // block dictOff
	enc = binary.AppendUvarint(enc, 0) // block postOff
	enc = binary.AppendUvarint(enc, uint64(len(dict)))
	enc = append(enc, dict...)
	enc = binary.AppendUvarint(enc, uint64(len(blob)))
	enc = append(enc, blob...)

	if _, err := DecodeSegment(enc); err == nil {
		t.Fatal("doc-ID overflow should fail decode")
	}
}

// withMagic returns enc with its leading magic varint replaced.
func withMagic(enc []byte, magic uint64) []byte {
	_, n := binary.Uvarint(enc)
	return append(binary.AppendUvarint(nil, magic), enc[n:]...)
}

// TestDecodeRejectsLegacyMagic: v3 is the only segment format. The v1
// (0x5153) and v2 (0x5154) magics, and any other unknown magic, must be
// rejected as corrupt even when the rest of the bytes are a valid v3
// body.
func TestDecodeRejectsLegacyMagic(t *testing.T) {
	enc := randomDocSegment(3, 1).Encode()
	if _, err := DecodeSegment(enc); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []uint64{0x5153, 0x5154, 0x5156, 0} {
		if _, err := DecodeSegment(withMagic(enc, magic)); !errors.Is(err, errCorruptSegment) {
			t.Errorf("magic %#x: err = %v, want errCorruptSegment", magic, err)
		}
	}
}

// TestDecodeRejectsTamperedBlockIndex: nudging a block-index offset so it
// no longer lands on a dictionary entry boundary must fail decode loudly
// — a frontend must never serve a segment whose lookups silently miss
// terms the dictionary contains.
func TestDecodeRejectsTamperedBlockIndex(t *testing.T) {
	seg := NewSegment(1)
	for i := 0; i < 130; i++ { // 3 blocks at dictBlockSize 64
		term := fmt.Sprintf("term%05d", i)
		doc := DocID(i + 1)
		seg.Terms[term] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{0}}}
		seg.DocLens[doc] = 1
	}
	enc := seg.Encode()
	if _, err := DecodeSegment(enc); err != nil {
		t.Fatal(err)
	}

	// Walk to block 1's dictOff varint: magic, gen, docs region, nterms,
	// nblocks, block 0 (termLen, term, dictOff, postOff), block 1's
	// termLen + term.
	off := 0
	skip := func() uint64 {
		v, n := binary.Uvarint(enc[off:])
		if n <= 0 {
			t.Fatal("walk failed")
		}
		off += n
		return v
	}
	skip() // magic
	skip() // gen
	ndocs := skip()
	for i := uint64(0); i < ndocs; i++ {
		skip() // doc gap
		skip() // doc len
	}
	skip() // nterms
	skip() // nblocks
	for b := 0; b < 2; b++ {
		tlen := skip()
		off += int(tlen)
		if b == 0 {
			skip() // block 0 dictOff
			skip() // block 0 postOff
		}
	}
	tampered := append([]byte(nil), enc...)
	tampered[off]++ // block 1 dictOff: mid-entry, no longer a boundary
	if _, err := DecodeSegment(tampered); err == nil {
		t.Fatal("tampered block index should fail decode")
	}
}

// TestTermsSortedMemoized: repeated calls return the same backing slice.
func TestTermsSortedMemoized(t *testing.T) {
	seg := randomDocSegment(7, 1)
	a, b := seg.TermsSorted(), seg.TermsSorted()
	if len(a) == 0 {
		t.Fatal("empty segment")
	}
	if &a[0] != &b[0] {
		t.Fatal("TermsSorted rebuilt the slice on a second call")
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	c, d := dec.TermsSorted(), dec.TermsSorted()
	if &c[0] != &d[0] {
		t.Fatal("lazy TermsSorted rebuilt the slice on a second call")
	}
}

// TestTopKMatchesFullSort: the bounded-heap selection must agree exactly
// with the reference full-sort implementation for every k.
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		rng := xrand.New(uint64(seed) + 1)
		n := 1 + rng.Intn(200)
		docs := make([]ScoredDoc, n)
		for i := range docs {
			// Coarse scores force plenty of ties to exercise the DocID
			// tiebreaker.
			docs[i] = ScoredDoc{Doc: DocID(rng.Intn(1000)), Score: float64(rng.Intn(8))}
		}
		k := int(kRaw)%(n+4) + 1

		ref := append([]ScoredDoc(nil), docs...)
		sortScored(ref)
		if k < len(ref) {
			ref = ref[:k]
		}
		got := TopK(docs, k)
		if len(got) != len(ref) {
			t.Logf("len = %d, want %d", len(got), len(ref))
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Logf("rank %d: %+v, want %+v", i, got[i], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
