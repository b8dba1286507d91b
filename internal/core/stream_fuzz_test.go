package core

import (
	"testing"

	"smartrpc/internal/wire"
)

// FuzzChunkReassembly drives the exchange's reply classifier with a
// well-formed reply plus one fuzz-chosen corruption and checks it accepts
// exactly the intact prefix and rejects the first out-of-contract frame.
// The reply is a chunk sequence (or, for mutation 6, a classic single
// frame) for a FETCH or VALIDATE exchange. The corruptions:
//
//   - torn streams, which a retry can outrun (transient): a dropped,
//     duplicated or swapped chunk, a wrong exchange id, a chunk after the
//     final one;
//   - protocol errors (terminal): a classic reply after chunk 0, a chunk
//     of the other exchange kind's form (a fetch chunk in a VALIDATE
//     exchange or a validate chunk in a FETCH exchange), a classic reply
//     of the other kind.
//
// The client installs chunks as they arrive, so this gate is all that
// stands between a reordering transport and a torn closure.
func FuzzChunkReassembly(f *testing.F) {
	f.Add(uint64(1), 5, 0, 0, false)
	f.Add(uint64(7), 8, 1, 3, false)
	f.Add(uint64(9), 2, 2, 1, true)
	f.Add(uint64(3), 6, 3, 2, false)
	f.Add(uint64(0xdeadbeef), 4, 4, 0, true)
	f.Add(uint64(2), 3, 5, 1, false)
	f.Add(uint64(4), 1, 6, 0, false)
	f.Add(uint64(4), 1, 6, 0, true)
	f.Add(uint64(5), 3, 7, 1, false)
	f.Add(uint64(6), 4, 8, 2, true)
	f.Add(uint64(6), 4, 8, 0, false)
	f.Add(uint64(8), 2, 9, 0, true)
	f.Fuzz(func(t *testing.T, xid uint64, n, mutate, pick int, validate bool) {
		if n < 1 || n > 64 {
			return
		}
		xid &= wire.SeqXIDMask
		item := wire.DataItem{LP: wire.LongPtr{Space: 1, Addr: 0x10000, Type: 1}, Bytes: []byte{1, 2, 3, 4}}
		chunk := func(i int, final, v bool) wire.Message {
			p := wire.FetchChunkPayload{XID: xid, Chunk: uint32(i), Final: final, Validate: v}
			if !v {
				p.Items = []wire.DataItem{item}
			}
			return wire.Message{Kind: wire.KindFetchChunk, Payload: p.Encode()}
		}
		classic := func(v bool) wire.Message {
			if v {
				p := wire.ValidateReplyPayload{}
				return wire.Message{Kind: wire.KindValidateReply, Payload: p.Encode()}
			}
			p := wire.ItemsPayload{Items: []wire.DataItem{item}}
			return wire.Message{Kind: wire.KindFetchReply, Payload: p.Encode()}
		}
		seq := make([]wire.Message, n)
		for i := range seq {
			seq[i] = chunk(i, i == n-1, validate)
		}
		if pick < 0 {
			pick = -(pick + 1)
		}
		// badAt is the index in the (mutated) sequence where the
		// classifier must reject; -1 means the whole sequence is in
		// contract. torn says whether that rejection is transient.
		badAt, torn := -1, true
		m := ((mutate % 10) + 10) % 10
		switch m {
		case 0: // intact
		case 1: // drop a non-final chunk (a dropped final is not a
			// reassembly error — the stream just never finishes, which the
			// deadline owns, not the classifier)
			if n < 2 {
				return
			}
			at := pick % (n - 1)
			seq = append(seq[:at], seq[at+1:]...)
			badAt = at // the successor's ordinal skips one
		case 2: // duplicate one chunk
			at := pick % n
			seq = append(seq[:at+1], seq[at:]...)
			badAt = at + 1
		case 3: // swap adjacent chunks
			if n < 2 {
				return
			}
			at := pick % (n - 1)
			seq[at], seq[at+1] = seq[at+1], seq[at]
			badAt = at
		case 4: // wrong exchange id on one chunk
			at := pick % n
			p, err := wire.DecodeFetchChunkPayload(seq[at].Payload)
			if err != nil {
				t.Fatal(err)
			}
			p.XID = (xid + 1) & wire.SeqXIDMask
			seq[at].Payload = p.Encode()
			badAt = at
		case 5: // a chunk after the final one
			seq = append(seq, chunk(n, true, validate))
			badAt = n
		case 6: // a classic reply: a one-chunk final stream
			seq = []wire.Message{classic(validate)}
		case 7: // a classic reply after chunk 0
			at := 1 + pick%n
			seq = append(seq[:at:at], classic(validate))
			badAt, torn = at, false
		case 8: // a chunk of the other form
			at := pick % n
			seq[at] = chunk(at, at == n-1, !validate)
			badAt, torn = at, false
		case 9: // a classic reply of the other kind
			seq = []wire.Message{classic(!validate)}
			badAt, torn = 0, false
		}
		kind := wire.KindFetch
		if validate {
			kind = wire.KindValidate
		}
		x := &exchange{rt: &Runtime{}, req: wire.Message{Kind: kind, To: 1}, seq: xid}
		x.asm = chunkAssembler{xid: xid}
		for i := range seq {
			c, err := x.classify(&seq[i])
			if badAt == -1 || i < badAt {
				if err != nil {
					t.Fatalf("mutation %d: frame %d (%v) rejected in an intact prefix: %v", m, i, seq[i].Kind, err)
				}
				if want := seq[i].Kind != wire.KindFetchChunk || wire.ChunkIsFinal(seq[i].Payload); c.Final != want {
					t.Fatalf("mutation %d: frame %d final=%v, want %v", m, i, c.Final, want)
				}
				if !validate && len(c.Items) != 1 {
					t.Fatalf("mutation %d: frame %d carries %d items, want 1", m, i, len(c.Items))
				}
				continue
			}
			if err == nil {
				t.Fatalf("mutation %d: frame %d (%v) accepted; want reject", m, i, seq[i].Kind)
			}
			if isTransient(err) != torn {
				t.Fatalf("mutation %d: frame %d rejected with transient=%v, want %v: %v",
					m, i, isTransient(err), torn, err)
			}
			return
		}
		if badAt != -1 {
			t.Fatalf("mutation %d: mutated sequence fully accepted", m)
		}
		if !x.asm.done {
			t.Fatalf("intact sequence did not finish the stream")
		}
	})
}
