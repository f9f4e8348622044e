package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Every value the benchmark writes names its key, its writer and the
// writer's sequence number, and carries a CRC over all of that:
//
//	[0:8]   key id (big-endian)
//	[8:16]  writer sequence number (0 for the initial load)
//	[16]    writer id (the key's owner, key mod workers)
//	[17:96] filler derived from key and sequence
//	[96:100] CRC-32C of [0:96]
const (
	valueSize = 100
	keySize   = 8
	// userBytesPerKey is what one live pair holds for its user: key plus
	// value, the denominator of heap_bytes_per_user_byte.
	userBytesPerKey = keySize + valueSize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeValue fills dst (len valueSize) with the value writer w writes to
// key at sequence seq.
func encodeValue(dst []byte, key, seq uint64, w byte) {
	binary.BigEndian.PutUint64(dst[0:8], key)
	binary.BigEndian.PutUint64(dst[8:16], seq)
	dst[16] = w
	f := key*0x9e3779b97f4a7c15 ^ seq
	for i := 17; i < 96; i++ {
		dst[i] = byte(f >> (8 * (i % 8)))
	}
	binary.BigEndian.PutUint32(dst[96:100], crc32.Checksum(dst[:96], castagnoli))
}

// decodeValue validates a value's length and CRC and returns what it names.
func decodeValue(v []byte) (key, seq uint64, w byte, err error) {
	if len(v) != valueSize {
		return 0, 0, 0, fmt.Errorf("value length %d, want %d", len(v), valueSize)
	}
	if crc32.Checksum(v[:96], castagnoli) != binary.BigEndian.Uint32(v[96:100]) {
		return 0, 0, 0, errors.New("value CRC mismatch")
	}
	return binary.BigEndian.Uint64(v[0:8]), binary.BigEndian.Uint64(v[8:16]), v[16], nil
}

func keyBytes(dst []byte, id uint64) []byte {
	binary.BigEndian.PutUint64(dst[:keySize], id)
	return dst[:keySize]
}

// checker holds what the benchmark knows about every key and judges every
// answer against it. Worker w owns (writes) exactly the keys with
// id mod workers == w, so the final state is exact and transactional
// stores never see write-write conflicts.
type checker struct {
	n       uint64
	workers int

	// acked[k] is the sequence of the owner's last acknowledged write to k
	// (0 = the loaded value). Written by the owner, read by everyone.
	acked []atomic.Uint64
	// latest[w] is the newest sequence writer w has handed to a put.
	latest []atomic.Uint64
	// pending[k] is the sequence of a failed write put after the last
	// acked one: the key is ambiguous between the two until the next acked
	// write. Owner-only.
	pending []uint64
	// seen[r][k] is the newest sequence reader r has observed for k.
	seen [][]uint64

	violations atomic.Int64
	mu         sync.Mutex
	first      []string // the first few violations, for the report
}

func newChecker(n uint64, workers int) *checker {
	c := &checker{
		n:       n,
		workers: workers,
		acked:   make([]atomic.Uint64, n),
		latest:  make([]atomic.Uint64, workers),
		pending: make([]uint64, n),
		seen:    make([][]uint64, workers),
	}
	for r := range c.seen {
		c.seen[r] = make([]uint64, n)
	}
	return c
}

func (c *checker) owner(k uint64) int { return int(k % uint64(c.workers)) }

func (c *checker) fail(format string, args ...any) {
	if c.violations.Add(1) <= 5 {
		c.mu.Lock()
		c.first = append(c.first, fmt.Sprintf(format, args...))
		c.mu.Unlock()
	}
}

// nextSeq hands writer w the sequence for its next put.
func (c *checker) nextSeq(w int) uint64 {
	s := c.latest[w].Load() + 1
	c.latest[w].Store(s)
	return s
}

// putDone records the outcome of writer w's put of seq to k.
func (c *checker) putDone(k, seq uint64, err error) {
	if err != nil {
		c.pending[k] = seq
		return
	}
	c.acked[k].Store(seq)
	c.pending[k] = 0
}

// checkRead judges one value reader r got for key k. lo is acked[k] as
// loaded before the read began; the writer's latest sequence is loaded
// now, after it returned.
func (c *checker) checkRead(r int, k, lo uint64, v []byte, found bool) {
	if !found {
		c.fail("reader %d: key %d not found", r, k)
		return
	}
	key, seq, w, err := decodeValue(v)
	if err != nil {
		c.fail("reader %d: key %d: %v", r, k, err)
		return
	}
	own := c.owner(k)
	switch {
	case key != k:
		c.fail("reader %d: read under key %d names key %d", r, k, key)
	case int(w) != own:
		c.fail("reader %d: key %d written by %d, owner is %d", r, k, w, own)
	case seq < lo:
		c.fail("reader %d: key %d stale: seq %d older than acked %d", r, k, seq, lo)
	case seq < c.seen[r][k]:
		c.fail("reader %d: key %d went back: seq %d after seeing %d", r, k, seq, c.seen[r][k])
	case seq > c.latest[own].Load():
		c.fail("reader %d: key %d seq %d never put by writer %d", r, k, seq, own)
	case own == r && seq != lo && seq != c.pending[k]:
		c.fail("reader %d: own key %d seq %d, wrote %d (pending %d)", r, k, seq, lo, c.pending[k])
	default:
		c.seen[r][k] = seq
	}
}

// finalValue judges one key in the sweep after all workers stopped: it
// must hold its owner's last acked value, or a failed write's value if
// that write came after the last ack.
func (c *checker) finalValue(k uint64, v []byte) {
	key, seq, w, err := decodeValue(v)
	if err != nil {
		c.fail("sweep: key %d: %v", k, err)
		return
	}
	want := c.acked[k].Load()
	if key != k || int(w) != c.owner(k) || (seq != want && (c.pending[k] == 0 || seq != c.pending[k])) {
		c.fail("sweep: key %d holds key %d writer %d seq %d, want seq %d (pending %d)",
			k, key, w, seq, want, c.pending[k])
	}
}

// report renders the violation count and the first few violations.
func (c *checker) report() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("%d violations", c.violations.Load())
	for _, f := range c.first {
		s += "\n  " + f
	}
	return s
}
