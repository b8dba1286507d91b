package wire

import (
	"bytes"
	"testing"

	"smartrpc/internal/xdr"
)

// --- attempt-tagged sequence numbers ---

func TestSeqAttemptHelpers(t *testing.T) {
	cases := []struct {
		xid     uint64
		attempt uint8
	}{
		{0, 0},
		{1, 0},
		{1, 1},
		{99, 255},
		{SeqXIDMask, 7},
	}
	for _, c := range cases {
		seq := SeqWithAttempt(c.xid, c.attempt)
		if got := SeqXID(seq); got != c.xid {
			t.Errorf("SeqXID(SeqWithAttempt(%d, %d)) = %d, want %d", c.xid, c.attempt, got, c.xid)
		}
		if got := SeqAttempt(seq); got != c.attempt {
			t.Errorf("SeqAttempt(SeqWithAttempt(%d, %d)) = %d, want %d", c.xid, c.attempt, got, c.attempt)
		}
	}
	// An overlong xid is masked into the xid bits, never into the attempt
	// ordinal.
	seq := SeqWithAttempt(^uint64(0), 3)
	if SeqXID(seq) != SeqXIDMask || SeqAttempt(seq) != 3 {
		t.Errorf("overlong xid: got (%d, %d), want (%d, 3)", SeqXID(seq), SeqAttempt(seq), SeqXIDMask)
	}
	// Attempt zero leaves a plain xid unchanged: the seed's sequence
	// numbers are valid attempt-0 sequence numbers.
	if SeqWithAttempt(42, 0) != 42 {
		t.Errorf("SeqWithAttempt(42, 0) = %d, want 42", SeqWithAttempt(42, 0))
	}
}

// --- optional trailing incarnation word ---

func TestIncarnationZeroIsByteIdentical(t *testing.T) {
	// An unstamped message (Inc == 0) must encode exactly as the seed
	// format did: no trailing word, same wire size, same checksum input.
	m := sampleMessage()
	m.Seal()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	plain := append([]byte(nil), enc.Bytes()...)

	stamped := m
	stamped.Inc = 7
	stamped.Seal()
	enc2 := xdr.NewEncoder(64)
	stamped.Encode(enc2)
	withInc := enc2.Bytes()

	if len(withInc) != len(plain)+4 {
		t.Fatalf("stamped frame is %d bytes, want %d (+4 for the incarnation word)", len(withInc), len(plain))
	}
	if m.WireSize() != len(plain) || stamped.WireSize() != len(withInc) {
		t.Errorf("WireSize mismatch: plain %d (encoded %d), stamped %d (encoded %d)",
			m.WireSize(), len(plain), stamped.WireSize(), len(withInc))
	}
	// The stamped frame is the plain frame plus the trailing word — except
	// for the checksum, which must cover the incarnation.
	if m.Sum == stamped.Sum {
		t.Error("checksum does not cover the incarnation word")
	}
}

func TestIncarnationRoundTrip(t *testing.T) {
	m := sampleMessage()
	m.Inc = 12345
	m.Seal()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	got, err := Decode(xdr.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Inc != 12345 {
		t.Errorf("Inc = %d, want 12345", got.Inc)
	}
	if !got.SumOK() {
		t.Error("round-tripped stamped frame fails checksum verification")
	}
}

func TestIncarnationOldFrameDecodesAsZero(t *testing.T) {
	// A frame from a sender that never stamps (or an older build) ends at
	// Sum; decode must yield Inc == 0 and a valid checksum.
	m := sampleMessage()
	m.Seal()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	got, err := Decode(xdr.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Inc != 0 {
		t.Errorf("Inc = %d, want 0 for an unstamped frame", got.Inc)
	}
	if !got.SumOK() {
		t.Error("unstamped frame fails checksum verification")
	}
}

func TestIncarnationCorruptionCaughtBySum(t *testing.T) {
	m := sampleMessage()
	m.Inc = 9
	m.Seal()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	raw := append([]byte(nil), enc.Bytes()...)
	raw[len(raw)-1] ^= 0xff // flip a bit inside the trailing incarnation word
	got, err := Decode(xdr.NewDecoder(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.SumOK() {
		t.Error("corrupted incarnation word passed checksum verification")
	}
}

func TestIncarnationFrameIO(t *testing.T) {
	// The length-prefixed frame path (WriteFrame/ReadFrame, the TCP
	// transport's framing) must carry the trailing word too.
	m := sampleMessage()
	m.Inc = 3
	m.Seal()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Inc != 3 {
		t.Errorf("Inc = %d, want 3", got.Inc)
	}
	if !got.SumOK() {
		t.Error("framed stamped message fails checksum verification")
	}
	got.ReleaseFrame()
}

// --- optional trailing error-code word ---

func TestCodeZeroIsByteIdentical(t *testing.T) {
	// A reply with Code zero must encode, size and checksum exactly as the
	// format without the word did — with or without an incarnation.
	for _, inc := range []uint32{0, 5} {
		m := sampleMessage()
		m.Inc = inc
		m.Seal()
		sum := m.Sum
		enc := xdr.NewEncoder(64)
		m.Encode(enc)
		// Eight fixed words, the proc string (4+10+2), an empty err
		// string (4) and the payload (4+5+3): the seed format.
		want := 8*4 + 16 + 4 + 12
		if inc != 0 {
			want += 4
		}
		if enc.Len() != want || m.WireSize() != want {
			t.Errorf("inc %d: encoded %d bytes (WireSize %d), want %d", inc, enc.Len(), m.WireSize(), want)
		}
		m.Code = CodeNone
		if m.Checksum() != sum {
			t.Errorf("inc %d: a zero code changed the checksum", inc)
		}
	}
}

func TestCodeRoundTrip(t *testing.T) {
	// A nonzero code travels after the incarnation word, which is then
	// present even when zero so the decoder can find the code.
	for _, inc := range []uint32{0, 12345} {
		for _, code := range []ErrCode{CodeChecksumReject, CodeOriginRestarted} {
			m := sampleMessage()
			m.Err = "boom"
			m.Inc, m.Code = inc, code
			m.Seal()
			enc := xdr.NewEncoder(64)
			m.Encode(enc)
			if enc.Len() != m.WireSize() {
				t.Errorf("inc %d code %d: encoded %d bytes, WireSize %d", inc, code, enc.Len(), m.WireSize())
			}
			plain := m
			plain.Inc, plain.Code = 0, 0
			if got, want := m.WireSize(), plain.WireSize()+8; got != want {
				t.Errorf("inc %d code %d: WireSize %d, want %d (+8 for both trailing words)", inc, code, got, want)
			}
			got, err := Decode(xdr.NewDecoder(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Inc != inc || got.Code != code || got.Err != "boom" {
				t.Errorf("decoded (inc %d, code %d, err %q), want (%d, %d, boom)", got.Inc, got.Code, got.Err, inc, code)
			}
			if !got.SumOK() {
				t.Errorf("inc %d code %d: round-tripped frame fails checksum verification", inc, code)
			}
		}
	}
}

func TestCodeOldFrameDecodesAsZero(t *testing.T) {
	// Frames that end at Sum or at the incarnation word carry no code.
	for _, inc := range []uint32{0, 9} {
		m := sampleMessage()
		m.Inc = inc
		m.Seal()
		enc := xdr.NewEncoder(64)
		m.Encode(enc)
		got, err := Decode(xdr.NewDecoder(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Code != CodeNone || got.Inc != inc || !got.SumOK() {
			t.Errorf("inc %d: decoded code %d inc %d sumOK %v", inc, got.Code, got.Inc, got.SumOK())
		}
	}
}

func TestCodeCorruptionCaughtBySum(t *testing.T) {
	m := sampleMessage()
	m.Code = CodeOriginRestarted
	m.Seal()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	raw := append([]byte(nil), enc.Bytes()...)
	raw[len(raw)-1] ^= 0x03 // turn the restart code into a checksum reject
	got, err := Decode(xdr.NewDecoder(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeChecksumReject {
		t.Fatalf("flipped code decoded as %d", got.Code)
	}
	if got.SumOK() {
		t.Error("corrupted code word passed checksum verification")
	}
}

func TestCodeFrameIO(t *testing.T) {
	m := sampleMessage()
	m.Kind = KindFetchChunk
	m.Code = CodeChecksumReject
	m.Seal()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeChecksumReject || got.Inc != 0 || !got.SumOK() {
		t.Errorf("framed code: code %d inc %d sumOK %v", got.Code, got.Inc, got.SumOK())
	}
	got.ReleaseFrame()
}
