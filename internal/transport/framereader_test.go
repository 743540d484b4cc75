package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/wire"
)

// frameStream encodes the given messages length-prefixed, the inbound wire
// format.
func frameStream(t testing.TB, msgs ...proto.Message) []byte {
	t.Helper()
	var buf []byte
	for _, m := range msgs {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		out, err := wire.Codec{}.AppendEncode(buf, m)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
		buf = out
	}
	return buf
}

// readAll decodes frames from fr until EOF.
func readAll(t *testing.T, fr *frameReader) []proto.Message {
	t.Helper()
	var out []proto.Message
	for {
		msg, err := fr.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, msg)
	}
}

// mixedMsgs is one frame of every kind the keyed mesh carries.
func mixedMsgs() []proto.Message {
	return []proto.Message{
		core.WriteMsg{Bit: 1, Val: proto.Value("v1")},
		core.ReadMsg{},
		core.ProceedMsg{},
		core.WriteMsg{Bit: 0, Val: proto.Value("v2")},
		regmap.KeyedMsg{Key: "cfg/a", Inner: core.LaneMsg{Writer: 2, M: core.WriteMsg{Bit: 1, Val: proto.Value("lane")}}},
		regmap.MultiMsg{Frames: []regmap.KeyedMsg{
			{Key: "cfg/a", Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{Bit: 0, Val: proto.Value("v1")}}},
			{Key: "cfg/b", Inner: core.ReadMsg{}},
		}},
	}
}

// sameMsgs compares decoded frames by their wire encoding.
func sameMsgs(t *testing.T, got, want []proto.Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		g, err := wire.Encode(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := wire.Encode(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("frame %d: got %s %x, want %s %x", i, got[i].TypeName(), g, want[i].TypeName(), w)
		}
	}
}

// allocatedDuring reports the bytes the heap handed out while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// countingReader counts the Read calls that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderRoundTrip pushes every frame kind through the stream
// framing: the frames come back in order and intact, and a drained stream
// ends in a clean io.EOF.
func TestFrameReaderRoundTrip(t *testing.T) {
	want := mixedMsgs()
	fr := newFrameReader(bytes.NewReader(frameStream(t, want...)), wire.Codec{})
	sameMsgs(t, readAll(t, fr), want)
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("draining empty stream: %v, want io.EOF", err)
	}
}

// TestFrameReaderKeyedMulti pins a keyed multi-frame's subframes across the
// stream framing.
func TestFrameReaderKeyedMulti(t *testing.T) {
	m := regmap.MultiMsg{Frames: []regmap.KeyedMsg{
		{Key: "cfg/a", Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{Bit: 0, Val: proto.Value("v1")}}},
		{Key: "cfg/b", Inner: core.ReadMsg{}},
	}}
	fr := newFrameReader(bytes.NewReader(frameStream(t, m)), wire.Codec{})
	got, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := got.(regmap.MultiMsg)
	if !ok || len(mm.Frames) != 2 || mm.Frames[0].Key != "cfg/a" || mm.Frames[1].Key != "cfg/b" {
		t.Fatalf("stream round trip produced %#v", got)
	}
}

// TestFrameReaderReusesBuffer pins the satellite property directly: once
// the read buffer has grown to fit the largest frame, subsequent frames
// decode through the same backing array — no per-frame allocation on the
// receive path. Safe only because wire.Codec.Decode copies everything it
// keeps.
func TestFrameReaderReusesBuffer(t *testing.T) {
	big := core.WriteMsg{Bit: 1, Val: bytes.Repeat([]byte{'x'}, 256)}
	small := core.WriteMsg{Bit: 0, Val: []byte("abc")}
	stream := frameStream(t, big, small, small, big, small)
	fr := newFrameReader(bytes.NewReader(stream), wire.Codec{})

	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	first := &fr.buf[0]
	for i := 0; i < 4; i++ {
		msg, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if &fr.buf[0] != first {
			t.Fatalf("frame %d reallocated the read buffer", i+1)
		}
		if _, ok := msg.(core.WriteMsg); !ok {
			t.Fatalf("frame %d decoded to %T", i+1, msg)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

// TestFrameReaderRejectsBadSizes covers the framing guards: zero-length
// and oversized frames are errors, checked before the body buffer is
// allocated.
func TestFrameReaderRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		size uint32
	}{
		{"zero", 0},
		{"huge", maxFrame + 1},
		{"max-u32", 0xFFFFFFFF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], tc.size)
			fr := newFrameReader(bytes.NewReader(hdr[:]), wire.Codec{})
			var err error
			if n := allocatedDuring(func() { _, err = fr.next() }); n > 1<<20 {
				t.Fatalf("rejecting a %d-byte prefix allocated %d bytes", tc.size, n)
			}
			if err == nil {
				t.Fatal("bad frame size accepted")
			}
			if fr.buf != nil {
				t.Fatalf("bad frame size grew the body buffer to %d bytes", cap(fr.buf))
			}
		})
	}
}

// TestFrameReaderDecodedValuesSurviveReuse guards the contract the reuse
// rests on: values decoded from one frame must stay intact after the
// buffer is overwritten by the next frame.
func TestFrameReaderDecodedValuesSurviveReuse(t *testing.T) {
	v1 := bytes.Repeat([]byte{'1'}, 64)
	v2 := bytes.Repeat([]byte{'2'}, 64)
	stream := frameStream(t,
		core.WriteMsg{Bit: 0, Val: v1},
		core.WriteMsg{Bit: 1, Val: v2})
	fr := newFrameReader(bytes.NewReader(stream), wire.Codec{})
	m1, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if got := m1.(core.WriteMsg).Val; !bytes.Equal(got, v1) {
		t.Fatalf("first frame's value corrupted by buffer reuse: %q", got)
	}
}

// TestFrameReaderOneByteReads feeds the stream one byte per Read: the
// buffer must assemble prefixes and bodies across any number of reads.
func TestFrameReaderOneByteReads(t *testing.T) {
	want := mixedMsgs()
	fr := newFrameReader(iotest.OneByteReader(bytes.NewReader(frameStream(t, want...))), wire.Codec{})
	sameMsgs(t, readAll(t, fr), want)
}

// TestFrameReaderLargerThanBuffer reads frames bigger than the read buffer
// between small ones: the body is assembled from the buffered head plus
// direct reads, and the small frames after it stay aligned.
func TestFrameReaderLargerThanBuffer(t *testing.T) {
	big := core.WriteMsg{Bit: 1, Val: bytes.Repeat([]byte{'b'}, 3*readBufSize+7)}
	small := core.WriteMsg{Bit: 0, Val: proto.Value("s")}
	want := []proto.Message{small, big, small, big, big, small}
	fr := newFrameReader(bytes.NewReader(frameStream(t, want...)), wire.Codec{})
	sameMsgs(t, readAll(t, fr), want)
}

// TestFrameReaderBatchedReads pins the point of the read buffer: frames
// already waiting in the stream cost no read of their own. 100
// back-to-back frames arrive in one Read plus the one that sees EOF;
// unbuffered, each frame costs two.
func TestFrameReaderBatchedReads(t *testing.T) {
	var want []proto.Message
	for i := 0; i < 100; i++ {
		want = append(want, regmap.KeyedMsg{Key: "k", Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{Bit: uint8(i % 2), Val: proto.Value("v")}}})
	}
	stream := frameStream(t, want...)
	if len(stream) > readBufSize {
		t.Fatalf("%d-byte stream does not fit the %d-byte read buffer", len(stream), readBufSize)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	fr := newFrameReader(cr, wire.Codec{})
	sameMsgs(t, readAll(t, fr), want)
	if cr.reads > 2 {
		t.Fatalf("100 frames took %d reads, want at most 2", cr.reads)
	}
}

// TestFrameReaderAdmitsLargestKeyedFrame pins the invariant that every
// frame a sender builds fits the receiver's cap: a value of the codec's
// limit under the longest key and a lane header must pass maxFrame.
func TestFrameReaderAdmitsLargestKeyedFrame(t *testing.T) {
	m := regmap.KeyedMsg{
		Key:   strings.Repeat("k", regmap.MaxKeyLen),
		Inner: core.LaneMsg{Writer: 255, M: core.WriteMsg{Bit: 1, Val: make(proto.Value, wire.MaxValueLen)}},
	}
	stream := frameStream(t, m)
	if size := len(stream) - 4; size > maxFrame {
		t.Fatalf("largest keyed frame is %d bytes, over the %d-byte cap", size, maxFrame)
	}
	got, err := newFrameReader(bytes.NewReader(stream), wire.Codec{}).next()
	if err != nil {
		t.Fatal(err)
	}
	if km, ok := got.(regmap.KeyedMsg); !ok || km.Inner.DataBytes() != wire.MaxValueLen {
		t.Fatalf("largest keyed frame decoded to %T", got)
	}
}

// TestMeshHandshakeSharesFirstRead sends the handshake byte and the first
// frames in one write: the frames that land in the read buffer with the
// handshake must all be delivered.
func TestMeshHandshakeSharesFirstRead(t *testing.T) {
	got := make(chan proto.Message, 8)
	m, err := NewMesh(1, 2, "127.0.0.1:0", wire.Codec{}, func(from int, msg proto.Message) {
		if from != 0 {
			t.Errorf("delivery from %d, want 0", from)
		}
		got <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := mixedMsgs()
	if _, err := conn.Write(append([]byte{0}, frameStream(t, want...)...)); err != nil {
		t.Fatal(err)
	}
	var recv []proto.Message
	for range want {
		select {
		case msg := <-got:
			recv = append(recv, msg)
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d of %d frames", len(recv), len(want))
		}
	}
	sameMsgs(t, recv, want)
	if st := m.Stats(); st.DecodeErrors != 0 {
		t.Fatalf("%d decode errors", st.DecodeErrors)
	}
}
