package longitudinal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Columnar batch wire format: one header plus packed parallel arrays for a
// batch of same-protocol reports. The per-report framing of the existing
// batch formats (a user ID and a length prefix per record) makes the
// decoder, not memory bandwidth, the ingestion ceiling; steady-state
// payloads of every protocol in this repository are fixed-size for a given
// configuration (UE chains: ⌈k/8⌉ bytes, GRR chains: value bytes of k,
// LOLOHA: value bytes of g, dBitFlipPM: ⌈d/8⌉ bytes), so a batch can carry
// one stride and pack the payload bytes contiguously with no per-record
// framing at all. The layout:
//
//	u32 LE  magic "LCB1"
//	u64 LE  spec hash (ProtocolSpec.Hash of the batch's protocol)
//	u32 LE  round (informational; servers own round boundaries)
//	u32 LE  count n
//	u32 LE  payload stride s
//	u32 LE  flags (bit 0: registration columns present)
//	ids       n zigzag-varint user-ID deltas (first delta is from 0)
//	if flags bit 0:
//	  u32 LE  d — sampled buckets per user
//	  n × u64 LE  hash seeds
//	  n × d × u32 LE  sampled bucket indices
//	payloads  n × s bytes, cell i at [i·s, (i+1)·s)
//
// User IDs are delta-encoded because batches are typically built from
// contiguous or near-contiguous ID blocks: the common delta of +1 encodes
// in one byte regardless of the ID magnitude. The optional registration
// columns let a cold batch enroll and report in one frame; steady-state
// batches omit them. The encoding is canonical — exact column lengths, no
// trailing bytes — so decode∘encode is the identity and a round file can
// be memory-mapped and decoded in place (the payload column aliases the
// source buffer; only IDs, seeds and buckets are unpacked into ints).

const (
	// columnarMagic is "LCB1" little-endian.
	columnarMagic = uint32('L') | uint32('C')<<8 | uint32('B')<<16 | uint32('1')<<24

	columnarHeaderBytes = 4 + 8 + 4 + 4 + 4 + 4

	// columnarFlagRegs marks the presence of the registration columns.
	columnarFlagRegs = 1 << 0
)

// ---------------------------------------------------------------------------
// Spec hashing.

// Hash returns a stable 64-bit fingerprint of the spec (FNV-1a over the
// family name and the fixed field encoding). Columnar batches carry it so
// a batch built for one protocol configuration cannot silently tally into
// a stream running another: the server rejects the whole batch on
// mismatch, exactly as it would a framing error.
func (s ProtocolSpec) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s.Family); i++ {
		h = (h ^ uint64(s.Family[i])) * prime64
	}
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v>>(8*i))&0xff) * prime64
		}
	}
	mix(uint64(s.K))
	mix(uint64(s.G))
	mix(uint64(s.B))
	mix(uint64(s.D))
	mix(math.Float64bits(s.EpsInf))
	mix(math.Float64bits(s.Eps1))
	return h
}

// ---------------------------------------------------------------------------
// Decoding.

// ColumnarBatch is one decoded columnar batch. DecodeColumnar reuses its
// slices across calls, and the payload column aliases the decode source —
// a batch is a view, valid until the source buffer is reused.
type ColumnarBatch struct {
	// SpecHash is the batch's protocol fingerprint (ProtocolSpec.Hash).
	SpecHash uint64
	// Round is the informational round index from the header.
	Round uint32
	// Stride is the payload cell size in bytes.
	Stride int
	// IDs holds the decoded user IDs, one per report.
	IDs []int
	// Payloads is the packed payload column (len(IDs) × Stride bytes),
	// aliasing the decode source.
	Payloads []byte
	// Seeds and Buckets are the registration columns (nil/empty unless
	// HasRegistrations): Seeds[i] is user i's hash seed and
	// Buckets[i·D:(i+1)·D] its sampled bucket indices.
	Seeds   []uint64
	Buckets []int
	// D is the sampled-bucket count per user in the Buckets column.
	D int

	hasRegs bool
}

// Count returns the number of reports in the batch.
//
//loloha:noalloc
func (b *ColumnarBatch) Count() int { return len(b.IDs) }

// HasRegistrations reports whether the batch carries the registration
// columns (a cold batch that enrolls and reports in one frame).
//
//loloha:noalloc
func (b *ColumnarBatch) HasRegistrations() bool { return b.hasRegs }

// Payload returns report i's payload cell, aliasing the packed column.
//
//loloha:noalloc
func (b *ColumnarBatch) Payload(i int) []byte {
	return b.Payloads[i*b.Stride : (i+1)*b.Stride : (i+1)*b.Stride]
}

// Registration returns report i's enrollment metadata. The Sampled slice
// aliases the batch's bucket column: callers that retain it past the next
// decode must copy it.
//
//loloha:noalloc
func (b *ColumnarBatch) Registration(i int) Registration {
	reg := Registration{HashSeed: b.Seeds[i]}
	if b.D > 0 {
		reg.Sampled = b.Buckets[i*b.D : (i+1)*b.D : (i+1)*b.D]
	}
	return reg
}

// DecodeColumnar decodes one columnar batch from src into b, reusing b's
// slice capacity. The payload column aliases src; IDs, seeds and buckets
// are unpacked. Every count and length is validated against the available
// bytes before any allocation sized by it, and trailing bytes are an
// error — a valid encoding is canonical. A decode error leaves b in an
// unspecified state; nothing of src is retained on error.
//
//loloha:noalloc
func DecodeColumnar(src []byte, b *ColumnarBatch) error {
	if len(src) < columnarHeaderBytes {
		return fmt.Errorf("longitudinal: short columnar batch: %d bytes, want at least %d", len(src), columnarHeaderBytes)
	}
	if m := binary.LittleEndian.Uint32(src); m != columnarMagic {
		return fmt.Errorf("longitudinal: columnar batch magic %#08x, want %#08x", m, columnarMagic)
	}
	b.SpecHash = binary.LittleEndian.Uint64(src[4:])
	b.Round = binary.LittleEndian.Uint32(src[12:])
	n := binary.LittleEndian.Uint32(src[16:])
	stride := binary.LittleEndian.Uint32(src[20:])
	flags := binary.LittleEndian.Uint32(src[24:])
	if flags&^uint32(columnarFlagRegs) != 0 {
		return fmt.Errorf("longitudinal: unknown columnar batch flags %#x", flags)
	}
	if n > 0 && stride == 0 {
		return fmt.Errorf("longitudinal: columnar batch declares %d reports with zero payload stride", n)
	}
	b.Stride = int(stride)
	b.hasRegs = flags&columnarFlagRegs != 0
	rest := src[columnarHeaderBytes:]

	// ID column: n zigzag varints. Each varint is at least one byte, so a
	// hostile count cannot run past the actual bytes — decoding fails
	// before anything is sized by n.
	b.IDs = b.IDs[:0]
	prev := int64(0)
	for i := uint32(0); i < n; i++ {
		delta, w := binary.Uvarint(rest)
		if w <= 0 {
			return fmt.Errorf("longitudinal: columnar batch ID column truncated at report %d", i)
		}
		rest = rest[w:]
		d := int64(delta>>1) ^ -int64(delta&1)
		if (d > 0 && prev > math.MaxInt64-d) || (d < 0 && prev < math.MinInt64-d) {
			return fmt.Errorf("longitudinal: columnar batch ID delta overflows at report %d", i)
		}
		prev += d
		if prev < 0 || uint64(prev) > maxColumnarUserID {
			return fmt.Errorf("longitudinal: columnar batch user ID %d not representable", prev)
		}
		//loloha:alloc-ok amortized ID-column growth, reused across batches
		b.IDs = append(b.IDs, int(prev))
	}

	// Registration columns: fixed-width, validated before unpacking.
	b.Seeds = b.Seeds[:0]
	b.Buckets = b.Buckets[:0]
	b.D = 0
	if b.hasRegs {
		if len(rest) < 4 {
			return fmt.Errorf("longitudinal: columnar batch registration columns truncated")
		}
		d := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if d > MaxRegistrationSampled {
			return fmt.Errorf("longitudinal: columnar batch claims %d sampled buckets per user, max %d", d, MaxRegistrationSampled)
		}
		b.D = int(d)
		need := uint64(n)*8 + uint64(n)*uint64(d)*4
		if uint64(len(rest)) < need {
			return fmt.Errorf("longitudinal: columnar batch registration columns need %d bytes, have %d", need, len(rest))
		}
		for i := uint32(0); i < n; i++ {
			//loloha:alloc-ok amortized seed-column growth, reused across batches
			b.Seeds = append(b.Seeds, binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*n:]
		for i := uint64(0); i < uint64(n)*uint64(d); i++ {
			//loloha:alloc-ok amortized bucket-column growth, reused across batches
			b.Buckets = append(b.Buckets, int(binary.LittleEndian.Uint32(rest[4*i:])))
		}
		rest = rest[4*uint64(n)*uint64(d):]
	}

	// Payload column: exactly n × stride bytes, aliased rather than copied.
	if need := uint64(n) * uint64(stride); uint64(len(rest)) != need {
		return fmt.Errorf("longitudinal: columnar batch payload column is %d bytes, want exactly %d", len(rest), need)
	}
	b.Payloads = rest
	return nil
}

// maxColumnarUserID is the largest wire user ID an int can hold.
const maxColumnarUserID = uint64(int(^uint(0) >> 1))

// ---------------------------------------------------------------------------
// Encoding.

// ColumnarWriter builds one columnar batch. It is reusable: Reset keeps
// the configuration and the accumulated column capacity, so a steady-state
// producer (the load generator, a round-file exporter) allocates nothing
// per batch after warm-up.
type ColumnarWriter struct {
	specHash uint64
	round    uint32
	stride   int
	withRegs bool
	d        int

	count    int
	prevID   int
	ids      []byte
	seeds    []byte
	buckets  []byte
	payloads []byte
}

// NewColumnarWriter returns a writer for batches of stride-byte payload
// cells carrying the given spec hash (p.Spec().Hash() of the protocol).
func NewColumnarWriter(specHash uint64, stride int) (*ColumnarWriter, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("longitudinal: columnar payload stride must be positive, got %d", stride)
	}
	return &ColumnarWriter{specHash: specHash, stride: stride}, nil
}

// WithRegistrations enables the registration columns with d sampled
// buckets per user (0 for seed-only families). It must be called before
// the first Add and makes AddWithRegistration the required add form.
func (w *ColumnarWriter) WithRegistrations(d int) error {
	if w.count > 0 {
		return fmt.Errorf("longitudinal: WithRegistrations after %d reports were added", w.count)
	}
	if d < 0 || d > MaxRegistrationSampled {
		return fmt.Errorf("longitudinal: registration column d=%d outside [0, %d]", d, MaxRegistrationSampled)
	}
	w.withRegs = true
	w.d = d
	return nil
}

// SetRound sets the informational round index carried in the header.
func (w *ColumnarWriter) SetRound(round uint32) { w.round = round }

// Count returns the number of reports added since the last Reset.
//
//loloha:noalloc
func (w *ColumnarWriter) Count() int { return w.count }

// EncodedSize returns the exact size AppendTo will append.
//
//loloha:noalloc
func (w *ColumnarWriter) EncodedSize() int {
	n := columnarHeaderBytes + len(w.ids) + len(w.payloads)
	if w.withRegs {
		n += 4 + len(w.seeds) + len(w.buckets)
	}
	return n
}

// Add appends one report. The payload must be exactly the writer's stride;
// its bytes are copied, so the caller may reuse the buffer.
//
//loloha:noalloc
func (w *ColumnarWriter) Add(userID int, payload []byte) error {
	if w.withRegs {
		return fmt.Errorf("longitudinal: writer has registration columns; use AddWithRegistration")
	}
	return w.add(userID, payload)
}

// AddWithRegistration appends one report together with the user's
// enrollment metadata. len(reg.Sampled) must equal the d configured by
// WithRegistrations.
func (w *ColumnarWriter) AddWithRegistration(userID int, payload []byte, reg Registration) error {
	if !w.withRegs {
		return fmt.Errorf("longitudinal: writer has no registration columns; call WithRegistrations first")
	}
	if len(reg.Sampled) != w.d {
		return fmt.Errorf("longitudinal: registration has %d sampled buckets, column takes %d", len(reg.Sampled), w.d)
	}
	for i, s := range reg.Sampled {
		if s < 0 || int64(s) > math.MaxUint32 {
			return fmt.Errorf("longitudinal: sampled bucket %d out of wire range: %d", i, s)
		}
	}
	if err := w.add(userID, payload); err != nil {
		return err
	}
	w.seeds = binary.LittleEndian.AppendUint64(w.seeds, reg.HashSeed)
	for _, s := range reg.Sampled {
		w.buckets = binary.LittleEndian.AppendUint32(w.buckets, uint32(s))
	}
	return nil
}

//loloha:noalloc
func (w *ColumnarWriter) add(userID int, payload []byte) error {
	if userID < 0 {
		return fmt.Errorf("longitudinal: negative user ID %d not encodable", userID)
	}
	if len(payload) != w.stride {
		return fmt.Errorf("longitudinal: payload is %d bytes, columnar stride is %d", len(payload), w.stride)
	}
	if w.count == math.MaxUint32 {
		return fmt.Errorf("longitudinal: columnar batch is full")
	}
	d := int64(userID) - int64(w.prevID)
	//loloha:alloc-ok amortized column growth, reused across Reset cycles
	w.ids = binary.AppendUvarint(w.ids, uint64(d<<1)^uint64(d>>63))
	//loloha:alloc-ok amortized column growth, reused across Reset cycles
	w.payloads = append(w.payloads, payload...)
	w.prevID = userID
	w.count++
	return nil
}

// AppendTo appends the encoded batch to dst and returns the extended
// buffer. The writer remains usable; call Reset to start the next batch.
//
//loloha:noalloc
func (w *ColumnarWriter) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, columnarMagic)
	dst = binary.LittleEndian.AppendUint64(dst, w.specHash)
	dst = binary.LittleEndian.AppendUint32(dst, w.round)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.stride))
	flags := uint32(0)
	if w.withRegs {
		flags |= columnarFlagRegs
	}
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	dst = append(dst, w.ids...)
	if w.withRegs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(w.d))
		dst = append(dst, w.seeds...)
		dst = append(dst, w.buckets...)
	}
	return append(dst, w.payloads...)
}

// Reset clears the accumulated reports, keeping the configuration
// (spec hash, stride, registration columns) and the column capacity.
//
//loloha:noalloc
func (w *ColumnarWriter) Reset() {
	w.count = 0
	w.prevID = 0
	w.ids = w.ids[:0]
	w.seeds = w.seeds[:0]
	w.buckets = w.buckets[:0]
	w.payloads = w.payloads[:0]
}
