package persist

// The merge envelope (LME1) is the exactly-once delivery unit of the
// collector tree: one LSS1 snapshot image wrapped with the shipping
// leaf's identity and a monotonically increasing (round, seq) epoch. The
// root keeps a per-leaf applied-seq ledger (the snapshot's ledger
// section), so a retried envelope — redial, ack lost after apply, leaf
// crash between export and ack — is acknowledged without being
// reapplied: delivery is idempotent, and duplicates are observable
// instead of silently biasing every frequency estimate.
//
// Layout (fixed-width integers little-endian):
//
//	u32  magic "LME1"
//	u8   leaf-name length L (1..255)
//	L    leaf name bytes
//	u32  round (the leaf's 0-based round the tallies belong to)
//	u64  seq (the leaf's envelope sequence number, strictly increasing
//	     across rounds AND restarts — the outbox persists the counter)
//	u32  snapshot length N
//	N    LSS1 image bytes (persist.Append form, itself CRC-guarded)
//	u32  CRC32 (IEEE) of every preceding byte
//
// Like the snapshot format, the encoding is canonical: one envelope has
// exactly one encoding, and truncation, bad magic, bad CRC, a zero-length
// leaf name and trailing bytes are all decode errors.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// EnvelopeMagic is the 4-byte header of every merge envelope: "LME1"
// (Loloha Merge Envelope, version 1).
const EnvelopeMagic = "LME1"

const (
	// envelopeFixedBytes is the size of everything except the leaf name
	// and the snapshot image: magic + name length + round + seq +
	// snapshot length + CRC.
	envelopeFixedBytes = 4 + 1 + 4 + 8 + 4 + 4

	// MaxLeafName bounds a leaf identity (one length byte on the wire).
	MaxLeafName = 255
)

// Envelope is the decoded form of one LME1 merge envelope.
type Envelope struct {
	// Leaf is the shipping leaf's stable identity — the ledger key. It
	// must survive leaf restarts (lolohad's -leaf-id), or a restarted
	// leaf would open a fresh dedup history at the root.
	Leaf string
	// Round is the leaf-local 0-based round index the tallies belong to.
	Round int
	// Seq is the leaf's envelope sequence number: strictly increasing
	// across rounds and restarts. The root deduplicates on it.
	Seq uint64
	// Snap is the round's exported tallies.
	Snap *Snapshot
}

// EnvelopeHeader is the zero-copy view of an envelope's identity: Leaf
// aliases the source buffer, Image is the inner LSS1 bytes (not yet
// decoded). Valid only while the source buffer is.
type EnvelopeHeader struct {
	Leaf  []byte
	Round int
	Seq   uint64
	Image []byte
}

// AppendEnvelope appends the canonical encoding of env to dst and
// returns the extended buffer. It errors (dst unmodified) when env is
// not encodable: empty or oversize leaf name, negative or out-of-range
// round, or an unencodable snapshot.
func AppendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	if len(env.Leaf) == 0 || len(env.Leaf) > MaxLeafName {
		return dst, fmt.Errorf("persist: leaf name length %d, want 1..%d", len(env.Leaf), MaxLeafName)
	}
	if env.Round < 0 || int64(env.Round) > math.MaxUint32 {
		return dst, fmt.Errorf("persist: envelope round %d outside wire range", env.Round)
	}
	image, err := Append(nil, env.Snap)
	if err != nil {
		return dst, err
	}
	return AppendEnvelopeImage(dst, env.Leaf, env.Round, env.Seq, image)
}

// AppendEnvelopeImage appends an envelope around an already-encoded LSS1
// image — the outbox path, which spools the image once and frames it on
// every ship attempt without re-encoding. The image is not re-validated
// here; ParseEnvelopeHeader and the inner Decode reject corruption on
// the receiving side.
//
//loloha:noalloc
func AppendEnvelopeImage(dst []byte, leaf string, round int, seq uint64, image []byte) ([]byte, error) {
	if len(leaf) == 0 || len(leaf) > MaxLeafName {
		return dst, fmt.Errorf("persist: leaf name length %d, want 1..%d", len(leaf), MaxLeafName)
	}
	if round < 0 || int64(round) > math.MaxUint32 {
		return dst, fmt.Errorf("persist: envelope round %d outside wire range", round)
	}
	if int64(len(image)) > math.MaxUint32 {
		return dst, fmt.Errorf("persist: snapshot image %d bytes outside wire range", len(image))
	}
	start := len(dst)
	dst = append(dst, EnvelopeMagic...)
	dst = append(dst, byte(len(leaf)))
	dst = append(dst, leaf...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(image)))
	dst = append(dst, image...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// ParseEnvelopeHeader validates an envelope's framing (magic, lengths,
// CRC) and returns a zero-copy view of its identity and inner image.
// The view aliases src. The inner LSS1 image is NOT decoded — the root
// checks the ledger first and skips the decode entirely for a duplicate
// envelope, which is what makes retry storms cheap.
//
//loloha:noalloc
func ParseEnvelopeHeader(src []byte) (EnvelopeHeader, error) {
	var h EnvelopeHeader
	if len(src) < envelopeFixedBytes+1 {
		return h, fmt.Errorf("persist: short envelope: %d bytes", len(src))
	}
	if string(src[:4]) != EnvelopeMagic {
		return h, fmt.Errorf("persist: bad envelope magic %q, want %q", src[:4], EnvelopeMagic)
	}
	body, tail := src[:len(src)-4], src[len(src)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return h, fmt.Errorf("persist: envelope checksum %#08x, trailer says %#08x", got, want)
	}
	nameLen := int(src[4])
	if nameLen == 0 {
		return h, fmt.Errorf("persist: empty leaf name")
	}
	if len(src) < envelopeFixedBytes+nameLen {
		return h, fmt.Errorf("persist: envelope truncated inside leaf name")
	}
	rest := src[5:]
	h.Leaf = rest[:nameLen]
	rest = rest[nameLen:]
	h.Round = int(binary.LittleEndian.Uint32(rest))
	h.Seq = binary.LittleEndian.Uint64(rest[4:])
	imageLen := binary.LittleEndian.Uint32(rest[12:])
	rest = rest[16:]
	if uint64(len(rest)) != uint64(imageLen)+4 {
		return h, fmt.Errorf("persist: envelope image length %d disagrees with %d remaining bytes",
			imageLen, len(rest)-4)
	}
	h.Image = rest[:imageLen]
	return h, nil
}

// DecodeEnvelope decodes one canonical envelope, including its inner
// snapshot. The returned envelope shares nothing with src.
func DecodeEnvelope(src []byte) (*Envelope, error) {
	h, err := ParseEnvelopeHeader(src)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(h.Image)
	if err != nil {
		return nil, fmt.Errorf("persist: envelope image: %w", err)
	}
	return &Envelope{Leaf: string(h.Leaf), Round: h.Round, Seq: h.Seq, Snap: snap}, nil
}
