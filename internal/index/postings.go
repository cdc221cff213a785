package index

import (
	"fmt"
	"sort"
)

// DocID identifies a document (stable per URL; assigned by the engine).
type DocID uint32

// Posting is one document's occurrence record for one term.
type Posting struct {
	Doc       DocID
	TF        uint32   // term frequency
	Positions []uint32 // token positions, ascending
}

// PostingList is a term's postings, sorted ascending by DocID.
type PostingList []Posting

// Docs returns just the document IDs of the list.
func (pl PostingList) Docs() []DocID {
	out := make([]DocID, len(pl))
	for i, p := range pl {
		out[i] = p.Doc
	}
	return out
}

// Find returns the posting for a document, if present, via binary search.
func (pl PostingList) Find(doc DocID) (Posting, bool) {
	i := sort.Search(len(pl), func(i int) bool { return pl[i].Doc >= doc })
	if i < len(pl) && pl[i].Doc == doc {
		return pl[i], true
	}
	return Posting{}, false
}

// sortCheck verifies ascending strict DocID order.
func (pl PostingList) sortCheck() error {
	for i := 1; i < len(pl); i++ {
		if pl[i].Doc <= pl[i-1].Doc {
			return fmt.Errorf("index: postings out of order at %d", i)
		}
	}
	return nil
}

// mergePostingLists unions two lists; on DocID collision the posting from
// b (the newer segment) wins.
func mergePostingLists(a, b PostingList) PostingList {
	out := make(PostingList, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Doc < b[j].Doc:
			out = append(out, a[i])
			i++
		case a[i].Doc > b[j].Doc:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// dropDocs removes postings whose DocID is in the tombstone set.
func dropDocs(pl PostingList, dead map[DocID]bool) PostingList {
	if len(dead) == 0 {
		return pl
	}
	out := pl[:0:0]
	for _, p := range pl {
		if !dead[p.Doc] {
			out = append(out, p)
		}
	}
	return out
}
