package netserver

// Fuzz targets for the two network-facing parsers: the TCP frame reader
// and the HTTP batch-body decoder. Both consume attacker-controlled bytes
// before any authentication, so they must never panic, never allocate
// anything sized by an unvalidated length, and — for the batch decoder —
// accept exactly the bodies AppendBatchRecord produces.
//
// CI runs these for a few seconds per push (the fuzz-smoke job); longer
// local runs: go test -fuzz FuzzFrameStream ./internal/netserver

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

func FuzzFrameStream(f *testing.F) {
	// Seeds: a well-formed session (enroll, report, flush), then
	// structured garbage around each validation edge.
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	cl := proto.NewClient(1)
	session, err := AppendEnrollFrame(nil, 1, cl.WireRegistration())
	if err != nil {
		f.Fatal(err)
	}
	session = AppendReportFrame(session, 1, cl.AppendReport(nil, 3))
	session = AppendFlushFrame(session)
	f.Add(session)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FrameReport}) // oversize length
	f.Add([]byte{4, 0, 0, 0, FrameEnroll, 1, 2, 3, 4}) // short enroll body
	f.Add([]byte{0, 0, 0, 0, 0x7e})                    // unknown type
	f.Add(append([]byte{9, 0, 0, 0, FrameReport}, make([]byte, 9)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, err := server.NewStream(proto, server.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		srv, err := New(Config{Stream: stream, MaxFrameBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Drive the connection loop directly over the fuzz bytes; acks go
		// nowhere. serve must terminate (EOF at the latest) without panic.
		c := &tcpConn{
			srv: srv,
			br:  bufio.NewReader(bytes.NewReader(data)),
			bw:  bufio.NewWriter(io.Discard),
		}
		c.serve()
	})
}

// FuzzMergeFrame drives a collector root's connection loop with an
// arbitrary merge-frame body. Like the other frame types the body is
// attacker-controlled bytes reaching persist.Decode and MergeRemote
// before any authentication: serve must terminate without panicking, and
// a rejected body must drop the connection without tallying anything.
func FuzzMergeFrame(f *testing.F) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: a matching tally-only snapshot (the leaf wire form), a
	// full-state snapshot with a user table, a mismatched-spec image, and
	// structured garbage.
	leaf, err := server.NewStream(proto, server.WithShards(1))
	if err != nil {
		f.Fatal(err)
	}
	cl := proto.NewClient(3)
	if err := leaf.Enroll(3, cl.WireRegistration()); err != nil {
		f.Fatal(err)
	}
	if err := leaf.Ingest(3, cl.AppendReport(nil, 5)); err != nil {
		f.Fatal(err)
	}
	var full bytes.Buffer
	if err := leaf.Snapshot(&full); err != nil {
		f.Fatal(err)
	}
	_, snap, err := leaf.CloseRoundExport()
	if err != nil {
		f.Fatal(err)
	}
	tallyOnly, err := persist.Append(nil, snap)
	if err != nil {
		f.Fatal(err)
	}
	leaf.Close()
	f.Add(tallyOnly)
	f.Add(full.Bytes())
	f.Add(tallyOnly[:len(tallyOnly)/2])
	f.Add([]byte("LSS1 but not really"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, err := server.NewStream(proto, server.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		srv, err := New(Config{Stream: stream, AcceptMerges: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		wire := AppendMergeFrame(nil, data)
		wire = AppendFlushFrame(wire)
		c := &tcpConn{
			srv: srv,
			br:  bufio.NewReader(bytes.NewReader(wire)),
			bw:  bufio.NewWriter(io.Discard),
		}
		c.serve()
		// Whatever the bytes were, the stream must still close a coherent
		// round afterwards.
		stream.CloseRound()
	})
}

func FuzzBatchBody(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatchRecord(nil, 7, []byte{1, 2, 3}))
	f.Add(AppendBatchRecord(AppendBatchRecord(nil, 0, nil), 1, []byte{9}))
	f.Add([]byte{1, 2, 3})                                    // truncated header
	f.Add(append(AppendBatchRecord(nil, 1, []byte{5}), 0xff)) // trailing garbage
	hostile := AppendBatchRecord(nil, 2, []byte{1})
	hostile[8] = 0xff // declared payload length far past the body
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		ids, payloads, err := decodeBatchBody(data, nil, nil, 1<<10)
		if err != nil {
			return
		}
		if len(ids) != len(payloads) {
			t.Fatalf("decode returned %d ids for %d payloads", len(ids), len(payloads))
		}
		// Accepted bodies are exactly the canonical encoding: re-encoding
		// the decoded records must reproduce the input byte for byte.
		var reencoded []byte
		for i := range ids {
			reencoded = AppendBatchRecord(reencoded, ids[i], payloads[i])
		}
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("decode/encode round-trip diverges:\n in  %x\n out %x", data, reencoded)
		}
	})
}
