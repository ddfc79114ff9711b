// Package persist is the durability codec of the collection service: a
// versioned binary snapshot format (LSS1) carrying a stream's open-round
// state — per-shard tally counts plus, optionally, the registration
// tables memoized clients depend on. The same wire form serves two jobs:
//
//   - Crash recovery: cmd/lolohad writes periodic and on-SIGTERM
//     snapshots; a restart restores enrollment, reported bits and tallies
//     so the interrupted round ends bit-identically to an uninterrupted
//     one (tallies are integer counts, so nothing is approximated).
//   - The collector tree: a leaf daemon exports its round tallies as a
//     one-shard, tally-only snapshot and ships it to the root inside a
//     merge frame (netserver FrameMerge / POST /v1/merge). Integer adds
//     commute, so the root's estimates match a single-node run exactly.
//
// Layout (all fixed-width integers little-endian):
//
//	u32  magic "LSS1"
//	u64  spec hash (Spec().Hash() of the producing protocol)
//	u32  round (0-based index of the open round the tallies belong to)
//	u32  shard count S
//	u32  flags (bit 0: registration sections present)
//	S ×  shard section:
//	       u32      L — tally length (the aggregator's count-vector size)
//	       u64      n — reports behind the tallies
//	       u64      tallied — reports tallied through the shard this round
//	       L ×      zigzag uvarint count
//	       if flags&1:
//	         u32    U — enrolled user count
//	         U ×    uvarint user-ID delta (first absolute, then gap to the
//	                previous ID, so IDs are strictly ascending) ++
//	                longitudinal.AppendRegistration bytes
//	         ⌈U/8⌉  reported bitset, bit i = i-th user reported this round
//	if flags&2 (collector-tree ledger, strictly ascending by leaf name):
//	  u32  E — ledger entry count
//	  E ×  u8 leaf-name length ++ name ++ u64 applied seq ++ u32 applied
//	       round ++ u64 reports merged ++ u64 duplicates suppressed
//	u32  CRC32 (IEEE) of every preceding byte
//
// The encoding is canonical: a Snapshot has exactly one encoding (user
// IDs must ascend strictly) and every valid encoding re-encodes to the
// same bytes. Trailing bytes, a bad CRC, unsorted IDs and truncated
// sections are all decode errors, and every length is validated against
// the bytes actually present before any allocation it sizes — hostile
// headers cannot force a large allocation.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// Magic is the 4-byte header of every snapshot: "LSS1" (Loloha Stream
// Snapshot, version 1).
const Magic = "LSS1"

const (
	// headerBytes is the fixed prefix: magic + spec hash + round + shard
	// count + flags.
	headerBytes = 4 + 8 + 4 + 4 + 4
	// shardFixedBytes is the fixed prefix of one shard section.
	shardFixedBytes = 4 + 8 + 8
	// crcBytes is the trailing checksum.
	crcBytes = 4

	// flagUsers marks snapshots carrying registration sections. A leaf's
	// merge payload omits them: the root never owns a leaf's users, only
	// its tallies.
	flagUsers = 1
	// flagLedger marks snapshots carrying the collector-tree ledger: the
	// root's per-leaf applied-envelope watermarks. The ledger rides the
	// same image as the tallies, so a restored root cannot disagree with
	// itself about which envelopes its counts already contain.
	flagLedger = 2

	// ledgerFixedBytes is one ledger entry minus its name: length byte +
	// seq + round + reports + duplicates.
	ledgerFixedBytes = 1 + 8 + 4 + 8 + 8

	// MaxShards bounds the shard count a decoder will accept; far above
	// any real stream (shards default to the CPU count) while keeping a
	// hostile header from looking plausible.
	MaxShards = 1 << 16
	// MaxTallyLen bounds one shard's tally length (the protocol's domain
	// size k, or b for bucketed protocols).
	MaxTallyLen = 1 << 28
)

// User is one enrolled user: identity, enrollment metadata and whether
// the user already reported in the snapshotted round (so a restored
// stream keeps rejecting the duplicate).
type User struct {
	ID       int
	Reg      longitudinal.Registration
	Reported bool
}

// Shard is one shard section: the open round's tally state plus the
// shard's registration table (Users is nil in tally-only snapshots).
type Shard struct {
	// Counts is the aggregator's exported support-count vector.
	Counts []int64
	// N is the report count behind Counts (Aggregator.ExportTally's n).
	N int
	// Tallied is the shard's reports-this-round counter (Stream.Pending).
	Tallied int
	// Users is the shard's registration table in ascending-ID order; nil
	// when the snapshot carries tallies only.
	Users []User
}

// LedgerEntry is one leaf's applied-envelope watermark in the root's
// dedup ledger: every envelope with Seq ≤ the recorded Seq is already in
// the root's tallies and must be acknowledged without being reapplied.
type LedgerEntry struct {
	// Leaf is the shipping leaf's stable identity (Envelope.Leaf).
	Leaf string
	// Seq is the highest envelope sequence number applied from the leaf.
	Seq uint64
	// Round is the leaf-local round of that envelope (attribution).
	Round int
	// Reports counts reports merged from the leaf, cumulatively.
	Reports uint64
	// Dups counts duplicate envelopes suppressed — the observable proof
	// that the at-least-once transport never double-counted.
	Dups uint64
}

// Snapshot is the decoded form of one LSS1 image.
type Snapshot struct {
	// SpecHash fingerprints the producing protocol's configuration;
	// restore and merge reject a snapshot whose hash disagrees with the
	// consuming stream's (server.ErrSnapshotMismatch).
	SpecHash uint64
	// Round is the 0-based index of the open round the tallies belong to.
	Round int
	// HasUsers records whether registration sections were encoded; it is
	// set independently of len(Users) so an empty table round-trips.
	HasUsers bool
	// HasLedger records whether the collector-tree ledger section was
	// encoded, independently of len(Ledger) so an empty ledger
	// round-trips.
	HasLedger bool
	// Shards holds one section per stream shard.
	Shards []Shard
	// Ledger holds the root's per-leaf applied-envelope watermarks in
	// strictly ascending leaf-name order; nil without HasLedger.
	Ledger []LedgerEntry
}

// Reports returns the total reports tallied into the snapshotted round,
// summed over shards.
func (s *Snapshot) Reports() int {
	total := 0
	for i := range s.Shards {
		total += s.Shards[i].Tallied
	}
	return total
}

// zigzag maps a signed count onto the uvarint domain (LSB = sign), the
// same scheme as the columnar codec's ID deltas.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint reads one minimally-encoded uvarint. Rejecting non-minimal
// forms (a value padded with continuation bytes) keeps the format
// canonical at the byte level: FuzzSnapshotDecode re-encodes every valid
// image and demands identity.
func uvarint(src []byte) (uint64, int, error) {
	v, w := binary.Uvarint(src)
	if w <= 0 {
		return 0, 0, fmt.Errorf("truncated or oversize varint")
	}
	if w > 1 && v < 1<<(7*uint(w-1)) {
		return 0, 0, fmt.Errorf("non-minimal varint encoding")
	}
	return v, w, nil
}

// Append appends the canonical encoding of s to dst and returns the
// extended buffer. It errors (dst unmodified) when s is not encodable:
// negative round/N/Tallied, out-of-range lengths, unsorted or negative
// user IDs, or a registration AppendRegistration rejects.
func Append(dst []byte, s *Snapshot) ([]byte, error) {
	if err := validateEncodable(s); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint64(dst, s.SpecHash)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Shards)))
	var flags uint32
	if s.HasUsers {
		flags |= flagUsers
	}
	if s.HasLedger {
		flags |= flagLedger
	}
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	for i := range s.Shards {
		sh := &s.Shards[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sh.Counts)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.N))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.Tallied))
		for _, c := range sh.Counts {
			dst = binary.AppendUvarint(dst, zigzag(c))
		}
		if !s.HasUsers {
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sh.Users)))
		prev := 0
		for ui := range sh.Users {
			u := &sh.Users[ui]
			delta := u.ID
			if ui > 0 {
				delta = u.ID - prev
			}
			prev = u.ID
			dst = binary.AppendUvarint(dst, uint64(delta))
			var err error
			dst, err = longitudinal.AppendRegistration(dst, u.Reg)
			if err != nil {
				return dst[:start], err
			}
		}
		base := len(dst)
		dst = append(dst, make([]byte, (len(sh.Users)+7)/8)...)
		for ui := range sh.Users {
			if sh.Users[ui].Reported {
				dst[base+ui/8] |= 1 << (uint(ui) % 8)
			}
		}
	}
	if s.HasLedger {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Ledger)))
		for i := range s.Ledger {
			e := &s.Ledger[i]
			dst = append(dst, byte(len(e.Leaf)))
			dst = append(dst, e.Leaf...)
			dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Round))
			dst = binary.LittleEndian.AppendUint64(dst, e.Reports)
			dst = binary.LittleEndian.AppendUint64(dst, e.Dups)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// validateEncodable rejects snapshots outside the wire's value ranges
// before any byte is appended.
func validateEncodable(s *Snapshot) error {
	if s.Round < 0 || int64(s.Round) > math.MaxUint32 {
		return fmt.Errorf("persist: round %d outside wire range", s.Round)
	}
	if len(s.Shards) == 0 || len(s.Shards) > MaxShards {
		return fmt.Errorf("persist: %d shard sections, want 1..%d", len(s.Shards), MaxShards)
	}
	for i := range s.Shards {
		sh := &s.Shards[i]
		if len(sh.Counts) > MaxTallyLen {
			return fmt.Errorf("persist: shard %d tally length %d exceeds %d", i, len(sh.Counts), MaxTallyLen)
		}
		if sh.N < 0 || sh.Tallied < 0 {
			return fmt.Errorf("persist: shard %d has negative report counters (n=%d, tallied=%d)", i, sh.N, sh.Tallied)
		}
		if !s.HasUsers {
			if len(sh.Users) != 0 {
				return fmt.Errorf("persist: shard %d carries %d users in a tally-only snapshot", i, len(sh.Users))
			}
			continue
		}
		prev := -1
		for ui := range sh.Users {
			id := sh.Users[ui].ID
			if id < 0 {
				return fmt.Errorf("persist: shard %d user ID %d negative", i, id)
			}
			if id <= prev {
				return fmt.Errorf("persist: shard %d user IDs not strictly ascending (%d after %d)", i, id, prev)
			}
			prev = id
		}
	}
	if !s.HasLedger {
		if len(s.Ledger) != 0 {
			return fmt.Errorf("persist: %d ledger entries in a snapshot without HasLedger", len(s.Ledger))
		}
		return nil
	}
	prevName := ""
	for i := range s.Ledger {
		e := &s.Ledger[i]
		if len(e.Leaf) == 0 || len(e.Leaf) > MaxLeafName {
			return fmt.Errorf("persist: ledger entry %d leaf-name length %d, want 1..%d", i, len(e.Leaf), MaxLeafName)
		}
		if i > 0 && e.Leaf <= prevName {
			return fmt.Errorf("persist: ledger leaf names not strictly ascending (%q after %q)", e.Leaf, prevName)
		}
		prevName = e.Leaf
		if e.Round < 0 || int64(e.Round) > math.MaxUint32 {
			return fmt.Errorf("persist: ledger entry %q round %d outside wire range", e.Leaf, e.Round)
		}
	}
	return nil
}

// Decode decodes one canonical snapshot image. The returned snapshot
// shares nothing with src. Truncation, a bad magic or CRC, out-of-range
// lengths, unsorted user IDs and trailing bytes are all errors; every
// length is checked against the bytes present before the allocation it
// sizes.
func Decode(src []byte) (*Snapshot, error) {
	if len(src) < headerBytes+crcBytes {
		return nil, fmt.Errorf("persist: short snapshot: %d bytes, want at least %d", len(src), headerBytes+crcBytes)
	}
	if string(src[:4]) != Magic {
		return nil, fmt.Errorf("persist: bad magic %q, want %q", src[:4], Magic)
	}
	body, tail := src[:len(src)-crcBytes], src[len(src)-crcBytes:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("persist: checksum %#08x, header says %#08x", got, want)
	}
	s := &Snapshot{
		SpecHash: binary.LittleEndian.Uint64(src[4:]),
		Round:    int(binary.LittleEndian.Uint32(src[12:])),
	}
	shards := binary.LittleEndian.Uint32(src[16:])
	flags := binary.LittleEndian.Uint32(src[20:])
	if flags&^uint32(flagUsers|flagLedger) != 0 {
		return nil, fmt.Errorf("persist: unknown flags %#x", flags)
	}
	s.HasUsers = flags&flagUsers != 0
	s.HasLedger = flags&flagLedger != 0
	if shards == 0 || shards > MaxShards {
		return nil, fmt.Errorf("persist: snapshot claims %d shards, want 1..%d", shards, MaxShards)
	}
	rest := body[headerBytes:]
	// Each shard section costs at least its fixed prefix; checking the
	// total up front keeps a hostile count from sizing the slice.
	if uint64(len(rest)) < uint64(shards)*shardFixedBytes {
		return nil, fmt.Errorf("persist: %d shard sections need %d bytes, have %d",
			shards, uint64(shards)*shardFixedBytes, len(rest))
	}
	s.Shards = make([]Shard, shards)
	for i := range s.Shards {
		var err error
		rest, err = decodeShard(rest, &s.Shards[i], s.HasUsers)
		if err != nil {
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
	}
	if s.HasLedger {
		var err error
		rest, err = decodeLedger(rest, s)
		if err != nil {
			return nil, fmt.Errorf("persist: ledger: %w", err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after the last section", len(rest))
	}
	return s, nil
}

// decodeLedger decodes the collector-tree ledger section into s.Ledger.
func decodeLedger(src []byte, s *Snapshot) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("truncated entry count")
	}
	entries := binary.LittleEndian.Uint32(src)
	rest := src[4:]
	// Every entry costs at least its fixed prefix plus a one-byte name;
	// checking the total up front keeps a hostile count from sizing the
	// slice.
	if uint64(len(rest)) < uint64(entries)*(ledgerFixedBytes+1) {
		return nil, fmt.Errorf("%d entries need at least %d bytes, have %d",
			entries, uint64(entries)*(ledgerFixedBytes+1), len(rest))
	}
	if entries > 0 {
		s.Ledger = make([]LedgerEntry, entries)
	}
	prev := ""
	for i := range s.Ledger {
		if len(rest) < 1 {
			return nil, fmt.Errorf("truncated entry %d", i)
		}
		nameLen := int(rest[0])
		if nameLen == 0 {
			return nil, fmt.Errorf("entry %d has an empty leaf name", i)
		}
		if len(rest) < ledgerFixedBytes+nameLen {
			return nil, fmt.Errorf("truncated entry %d", i)
		}
		e := &s.Ledger[i]
		e.Leaf = string(rest[1 : 1+nameLen])
		if i > 0 && e.Leaf <= prev {
			return nil, fmt.Errorf("leaf names not strictly ascending (%q after %q)", e.Leaf, prev)
		}
		prev = e.Leaf
		rest = rest[1+nameLen:]
		e.Seq = binary.LittleEndian.Uint64(rest)
		e.Round = int(binary.LittleEndian.Uint32(rest[8:]))
		e.Reports = binary.LittleEndian.Uint64(rest[12:])
		e.Dups = binary.LittleEndian.Uint64(rest[20:])
		rest = rest[28:]
	}
	return rest, nil
}

func decodeShard(src []byte, sh *Shard, hasUsers bool) ([]byte, error) {
	if len(src) < shardFixedBytes {
		return nil, fmt.Errorf("truncated section header: %d bytes", len(src))
	}
	tallyLen := binary.LittleEndian.Uint32(src)
	n := binary.LittleEndian.Uint64(src[4:])
	tallied := binary.LittleEndian.Uint64(src[12:])
	if tallyLen > MaxTallyLen {
		return nil, fmt.Errorf("tally length %d exceeds %d", tallyLen, MaxTallyLen)
	}
	if n > math.MaxInt64 || tallied > math.MaxInt64 {
		return nil, fmt.Errorf("report counters out of range (n=%d, tallied=%d)", n, tallied)
	}
	rest := src[shardFixedBytes:]
	// A varint count occupies at least one byte: the remaining length
	// bounds the element count before the slice is sized.
	if uint64(len(rest)) < uint64(tallyLen) {
		return nil, fmt.Errorf("%d counts need at least %d bytes, have %d", tallyLen, tallyLen, len(rest))
	}
	sh.N, sh.Tallied = int(n), int(tallied)
	if tallyLen > 0 {
		sh.Counts = make([]int64, tallyLen)
	}
	for i := range sh.Counts {
		u, w, err := uvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("count %d: %w", i, err)
		}
		sh.Counts[i] = unzigzag(u)
		rest = rest[w:]
	}
	if !hasUsers {
		return rest, nil
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("truncated user count")
	}
	users := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	// Every user record is at least a one-byte delta plus the 12-byte
	// fixed registration prefix, and the bitset follows.
	minBytes := uint64(users)*13 + (uint64(users)+7)/8
	if uint64(len(rest)) < minBytes {
		return nil, fmt.Errorf("%d user records need at least %d bytes, have %d", users, minBytes, len(rest))
	}
	if users > 0 {
		sh.Users = make([]User, users)
	}
	prev := -1
	for i := range sh.Users {
		delta, w, err := uvarint(rest)
		if err != nil || delta > math.MaxInt {
			return nil, fmt.Errorf("user-ID delta %d truncated or oversize", i)
		}
		rest = rest[w:]
		id := int(delta)
		if i > 0 {
			if delta == 0 {
				return nil, fmt.Errorf("user IDs not strictly ascending at record %d", i)
			}
			id = prev + int(delta)
			if id < prev { // overflow
				return nil, fmt.Errorf("user-ID overflow at record %d", i)
			}
		}
		prev = id
		sh.Users[i].ID = id
		sh.Users[i].Reg, rest, err = longitudinal.DecodeRegistration(rest)
		if err != nil {
			return nil, fmt.Errorf("user record %d: %w", i, err)
		}
	}
	bitBytes := int(users+7) / 8
	if len(rest) < bitBytes {
		return nil, fmt.Errorf("truncated reported bitset: %d bytes, want %d", len(rest), bitBytes)
	}
	for i := range sh.Users {
		sh.Users[i].Reported = rest[i/8]>>(uint(i)%8)&1 == 1
	}
	// Canonical form: bits past the last user must be zero, or two
	// distinct encodings would decode to the same snapshot.
	for i := int(users); i < bitBytes*8; i++ {
		if rest[i/8]>>(uint(i)%8)&1 == 1 {
			return nil, fmt.Errorf("nonzero padding bit %d in reported bitset", i)
		}
	}
	return rest[bitBytes:], nil
}

// Write writes the canonical encoding of s to w.
func Write(w io.Writer, s *Snapshot) error {
	buf, err := Append(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read decodes one snapshot image from r (consuming r to EOF; a snapshot
// file holds exactly one image).
func Read(r io.Reader) (*Snapshot, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return Decode(buf)
}
