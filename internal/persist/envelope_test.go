package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

func sampleEnvelope() *Envelope {
	return &Envelope{
		Leaf:  "leaf-west-1",
		Round: 4,
		Seq:   23,
		Snap: &Snapshot{
			SpecHash: 0xFEEDFACE,
			Round:    4,
			Shards:   []Shard{{Counts: []int64{5, -2, 0, 9}, N: 7, Tallied: 7}},
		},
	}
}

func encodeEnvelope(t *testing.T, env *Envelope) []byte {
	t.Helper()
	enc, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatalf("AppendEnvelope: %v", err)
	}
	return enc
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := sampleEnvelope()
	enc := encodeEnvelope(t, env)
	dec, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Leaf != env.Leaf || dec.Round != env.Round || dec.Seq != env.Seq {
		t.Fatalf("identity mismatch: %+v", dec)
	}
	if dec.Snap.SpecHash != env.Snap.SpecHash || dec.Snap.Reports() != env.Snap.Reports() {
		t.Fatalf("inner snapshot mismatch: %+v", dec.Snap)
	}
	// Canonical: re-encoding the decoded envelope is byte-identical.
	enc2 := encodeEnvelope(t, dec)
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding differs:\n in %x\nout %x", enc, enc2)
	}
}

// TestEnvelopeImagePath pins that framing a pre-encoded image (the
// outbox's ship path) produces the same bytes as encoding the envelope
// whole — the spooled file and a fresh export are interchangeable.
func TestEnvelopeImagePath(t *testing.T) {
	env := sampleEnvelope()
	image, err := Append(nil, env.Snap)
	if err != nil {
		t.Fatal(err)
	}
	fromImage, err := AppendEnvelopeImage(nil, env.Leaf, env.Round, env.Seq, image)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromImage, encodeEnvelope(t, env)) {
		t.Fatal("AppendEnvelopeImage disagrees with AppendEnvelope")
	}
	h, err := ParseEnvelopeHeader(fromImage)
	if err != nil {
		t.Fatal(err)
	}
	if string(h.Leaf) != env.Leaf || h.Round != env.Round || h.Seq != env.Seq {
		t.Fatalf("header view mismatch: %+v", h)
	}
	if !bytes.Equal(h.Image, image) {
		t.Fatal("header view image differs from the encoded snapshot")
	}
}

func TestEnvelopeEncodeRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Envelope)
		want string
	}{
		{"empty leaf", func(e *Envelope) { e.Leaf = "" }, "leaf name length"},
		{"oversize leaf", func(e *Envelope) { e.Leaf = strings.Repeat("x", MaxLeafName+1) }, "leaf name length"},
		{"negative round", func(e *Envelope) { e.Round = -1 }, "round"},
		{"bad snapshot", func(e *Envelope) { e.Snap.Shards = nil }, "shard sections"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sampleEnvelope()
			tc.mut(env)
			if _, err := AppendEnvelope(nil, env); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestEnvelopeDecodeRejections(t *testing.T) {
	enc := encodeEnvelope(t, sampleEnvelope())
	recrc := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"empty", func(b []byte) []byte { return nil }, "short envelope"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return recrc(b) }, "bad envelope magic"},
		{"flipped bit", func(b []byte) []byte { b[7] ^= 1; return b }, "checksum"},
		{"zero name length", func(b []byte) []byte { b[4] = 0; return recrc(b) }, "empty leaf name"},
		{"name past end", func(b []byte) []byte { b[4] = 255; return recrc(b) }, "truncated inside leaf name"},
		{"trailing bytes", func(b []byte) []byte {
			return recrc(append(b[:len(b)-4], 0, 0, 0, 0, 0, 0, 0, 0))
		}, "disagrees"},
		{"truncated image", func(b []byte) []byte { return recrc(b[:len(b)-8]) }, "disagrees"},
		{"corrupt inner image", func(b []byte) []byte {
			// Flip a bit inside the LSS1 payload and refresh only the outer
			// CRC: the framing stays valid, so only the inner decode (its
			// own CRC now stale) can catch the damage.
			b[5+int(b[4])+16+4] ^= 1
			return recrc(b)
		}, "envelope image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), enc...))
			if _, err := DecodeEnvelope(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestParseEnvelopeHeaderSkipsInnerDecode pins the dedup fast path: a
// corrupt inner image still parses at the header layer (CRC-refreshed),
// because the root consults the ledger before decoding the payload.
func TestParseEnvelopeHeaderSkipsInnerDecode(t *testing.T) {
	enc := encodeEnvelope(t, sampleEnvelope())
	nameLen := int(enc[4])
	imageOff := 5 + nameLen + 16
	enc[imageOff+8] ^= 0xFF // corrupt the inner image body
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.ChecksumIEEE(enc[:len(enc)-4]))
	if _, err := ParseEnvelopeHeader(enc); err != nil {
		t.Fatalf("header parse should not decode the image: %v", err)
	}
	if _, err := DecodeEnvelope(enc); err == nil {
		t.Fatal("full decode accepted a corrupt inner image")
	}
}

// TestEnvelopeReaderZeroAlloc is the runtime side of the //loloha:noalloc
// annotation on ParseEnvelopeHeader: the dedup fast path
// must inspect an envelope's identity without allocating (the warm-up run
// absorbs crc32's one-time table build).
func TestEnvelopeReaderZeroAlloc(t *testing.T) {
	enc := encodeEnvelope(t, sampleEnvelope())
	var hdr EnvelopeHeader
	allocs := testing.AllocsPerRun(100, func() {
		h, err := ParseEnvelopeHeader(enc)
		if err != nil {
			t.Fatal(err)
		}
		hdr = h
	})
	if allocs != 0 {
		t.Fatalf("envelope header read allocates %.1f times per envelope, want 0", allocs)
	}
	if hdr.Seq != 23 {
		t.Fatalf("parsed seq %d, want 23", hdr.Seq)
	}
}
