package netserver

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// HTTP batch-body format for POST /v1/reports: a concatenation of
// records, each
//
//	u64 LE  userID
//	u32 LE  payload length m (≤ MaxFrameBytes)
//	m bytes payload (Client.AppendReport wire form)
//
// The decoder walks the body once, collecting user IDs and payload
// sub-slices that alias the body buffer — no per-record copy — and feeds
// them to Stream.IngestBatch, which takes one shard-lock acquisition per
// shard per batch. Request-scoped working memory (body buffer, ID and
// payload slices) is pooled, so steady-state batches allocate nothing in
// the decode→tally path.

// ContentTypeColumnar selects the columnar body format on POST
// /v1/reports: the body is one longitudinal columnar batch
// (ColumnarWriter.AppendTo bytes) instead of per-report records. Any
// other content type selects the record format below.
const ContentTypeColumnar = "application/x-loloha-columnar"

// AppendBatchRecord appends one report record to a batch body under
// construction. Clients build a body with repeated calls and POST it to
// /v1/reports.
//
//loloha:noalloc
func AppendBatchRecord(dst []byte, userID int, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(userID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// batchRecordBytes is the fixed per-record framing overhead.
const batchRecordBytes = 8 + 4

// decodeBatchBody parses a /v1/reports body, appending into ids and
// payloads (reusing their capacity) and returning the filled slices.
// Payload sub-slices alias body. Record payload lengths are validated
// against maxPayload and the remaining body before use, so hostile
// lengths cannot oversize anything. A framing error fails the whole
// batch: unlike a rejected report, a corrupt body gives no way to find
// the next record boundary.
//
//loloha:noalloc
func decodeBatchBody(body []byte, ids []int, payloads [][]byte, maxPayload int) ([]int, [][]byte, error) {
	ids = ids[:0]
	payloads = payloads[:0]
	for off := 0; off < len(body); {
		if len(body)-off < batchRecordBytes {
			return ids, payloads, fmt.Errorf("netserver: batch record header truncated at offset %d", off)
		}
		id := binary.LittleEndian.Uint64(body[off:])
		m := int(binary.LittleEndian.Uint32(body[off+8:]))
		off += batchRecordBytes
		if m > maxPayload {
			return ids, payloads, fmt.Errorf("netserver: batch record payload %d bytes exceeds limit %d", m, maxPayload)
		}
		if m > len(body)-off {
			return ids, payloads, fmt.Errorf("netserver: batch record payload truncated: %d bytes declared, %d remain", m, len(body)-off)
		}
		if id > maxUserID {
			return ids, payloads, fmt.Errorf("netserver: user ID %d not representable", id)
		}
		ids = append(ids, int(id))
		payloads = append(payloads, body[off:off+m:off+m])
		off += m
	}
	return ids, payloads, nil
}

// maxUserID is the largest wire user ID an int can hold.
const maxUserID = uint64(int(^uint(0) >> 1))

// batchBuffers is the pooled per-request working memory of the HTTP
// ingestion handler.
type batchBuffers struct {
	body     []byte
	ids      []int
	payloads [][]byte
	// col is the columnar decode target (ContentTypeColumnar requests);
	// its column slices are reused across requests like ids/payloads.
	col longitudinal.ColumnarBatch
}

var batchPool = sync.Pool{New: func() any { return new(batchBuffers) }}

// putBatchBuffers drops payload aliases into the pool-held slices so
// pooled memory never pins a request body's decoded view longer than the
// request.
func putBatchBuffers(b *batchBuffers) {
	clear(b.payloads)
	b.col.Payloads = nil
	batchPool.Put(b)
}
