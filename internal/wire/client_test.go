package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestClientRequestRoundTrip(t *testing.T) {
	cases := []ClientRequest{
		{ID: 1, Op: ClientGet, Key: "k"},
		{ID: 1<<64 - 1, Op: ClientPut, Key: "color", Val: []byte("blue")},
		{ID: 0, Op: ClientPut, Key: strings.Repeat("k", 255), Val: make([]byte, 4096)},
		{ID: 7, Op: ClientPut, Key: "empty-val-put", Val: nil},
	}
	for _, want := range cases {
		b, err := AppendClientRequest(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeClientRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestClientResponseRoundTrip(t *testing.T) {
	cases := []ClientResponse{
		{ID: 1, Status: StatusOK, Val: []byte("v")},
		{ID: 2, Status: StatusOK}, // put ack: no payload
		{ID: 3, Status: StatusErr, Err: "boom"},
		{ID: 4, Status: StatusWrongShard, Err: "key is elsewhere"},
		{ID: 5, Status: StatusUnavailable, Err: "mid-restart"},
	}
	for _, want := range cases {
		b, err := AppendClientResponse(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeClientResponse(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Status != want.Status || !bytes.Equal(got.Val, want.Val) || got.Err != want.Err {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestClientEncodeRejects(t *testing.T) {
	reqs := []ClientRequest{
		{ID: 1, Op: 9, Key: "k"},                                   // unknown op
		{ID: 1, Op: ClientGet, Key: ""},                            // empty key
		{ID: 1, Op: ClientGet, Key: strings.Repeat("k", 256)},      // key too long
		{ID: 1, Op: ClientGet, Key: "k", Val: []byte("x")},         // get with value
		{ID: 1, Op: ClientPut, Key: "k", Val: make([]byte, 1<<25)}, // value too big
	}
	for _, r := range reqs {
		if b, err := AppendClientRequest(nil, r); err == nil {
			t.Errorf("encoded invalid request %+v", r)
		} else if len(b) != 0 {
			t.Errorf("failed encode extended dst by %d bytes", len(b))
		}
	}
	resps := []ClientResponse{
		{ID: 1, Status: 9},                                  // unknown status
		{ID: 1, Status: StatusErr, Val: []byte("v")},        // non-OK with value
		{ID: 1, Status: StatusOK, Err: "boom"},              // OK with error text
		{ID: 1, Status: StatusOK, Val: make([]byte, 1<<25)}, // payload too big
	}
	for _, r := range resps {
		if _, err := AppendClientResponse(nil, r); err == nil {
			t.Errorf("encoded invalid response %+v", r)
		}
	}
}

func TestClientDecodeRejects(t *testing.T) {
	good, err := AppendClientRequest(nil, ClientRequest{ID: 1, Op: ClientPut, Key: "k", Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClientRequest(good[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated request: %v", err)
	}
	wrongVer := append([]byte(nil), good...)
	wrongVer[0] = 1
	var ve *ClientVersionError
	if _, err := DecodeClientRequest(wrongVer); !errors.As(err, &ve) || ve.Got != 1 {
		t.Errorf("want ClientVersionError{1}, got %v", err)
	}
	trailing := append(append([]byte(nil), good...), 0xff)
	if _, err := DecodeClientRequest(trailing); err == nil {
		t.Error("decoded request with trailing garbage")
	}

	goodResp, err := AppendClientResponse(nil, ClientResponse{ID: 1, Status: StatusOK, Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClientResponse(goodResp[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated response: %v", err)
	}
	wrongVer = append([]byte(nil), goodResp...)
	wrongVer[0] = 99
	if _, err := DecodeClientResponse(wrongVer); !errors.As(err, &ve) || ve.Got != 99 {
		t.Errorf("want ClientVersionError{99}, got %v", err)
	}
}

func TestClientDecodeCopies(t *testing.T) {
	b, err := AppendClientRequest(nil, ClientRequest{ID: 1, Op: ClientPut, Key: "k", Val: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeClientRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xff
	}
	if req.Key != "k" || !bytes.Equal(req.Val, []byte("value")) {
		t.Fatalf("decoded request aliases the frame buffer: %+v", req)
	}
}

func TestClientFrameWriterAndReader(t *testing.T) {
	var buf bytes.Buffer
	var fw ClientFrameWriter
	wantReqs := []ClientRequest{
		{ID: 1, Op: ClientPut, Key: "a", Val: []byte("first")},
		{ID: 2, Op: ClientGet, Key: "b"},
	}
	for _, r := range wantReqs {
		if err := fw.WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteResponse(&buf, ClientResponse{ID: 2, Status: StatusOK, Val: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for _, want := range wantReqs {
		body, err := ReadClientFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = body[:0]
		got, err := DecodeClientRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Key != want.Key {
			t.Fatalf("frame stream: got %+v want %+v", got, want)
		}
	}
	body, err := ReadClientFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeClientResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 || resp.Status != StatusOK {
		t.Fatalf("response frame: %+v", resp)
	}
	if _, err := ReadClientFrame(&buf, nil); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// clientStream frames the given requests the way a session writes them.
func clientStream(t *testing.T, reqs []ClientRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	var fw ClientFrameWriter
	for _, r := range reqs {
		if err := fw.WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readRequests decodes request frames from r until EOF.
func readRequests(t *testing.T, r io.Reader) []ClientRequest {
	t.Helper()
	var out []ClientRequest
	var scratch []byte
	for {
		body, err := ReadClientFrame(r, scratch)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		scratch = body[:0]
		req, err := DecodeClientRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, req)
	}
}

func sameRequests(t *testing.T, got, want []ClientRequest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Op != want[i].Op || got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("request %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// readCounter counts the Read calls that reach the underlying stream.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadClientFrameBuffered covers ReadClientFrame behind the session's
// read buffer: bodies assembled across one-byte reads and across reads
// larger than the buffer, many frames served by one read, and an
// oversized prefix rejected before the body is allocated.
func TestReadClientFrameBuffered(t *testing.T) {
	buffered := func(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, ClientReadBufSize) }
	t.Run("one-byte-reads", func(t *testing.T) {
		want := []ClientRequest{
			{ID: 1, Op: ClientPut, Key: "a", Val: []byte("first")},
			{ID: 2, Op: ClientGet, Key: "b"},
			{ID: 3, Op: ClientPut, Key: "c", Val: bytes.Repeat([]byte{'v'}, 300)},
		}
		sameRequests(t, readRequests(t, buffered(iotest.OneByteReader(bytes.NewReader(clientStream(t, want))))), want)
	})
	t.Run("many-frames-per-read", func(t *testing.T) {
		var want []ClientRequest
		for i := 0; i < 100; i++ {
			want = append(want, ClientRequest{ID: uint64(i), Op: ClientPut, Key: "k", Val: []byte("v")})
		}
		cr := &readCounter{r: bytes.NewReader(clientStream(t, want))}
		sameRequests(t, readRequests(t, buffered(cr)), want)
		if cr.reads > 2 {
			t.Fatalf("100 frames took %d reads, want at most 2", cr.reads)
		}
	})
	t.Run("larger-than-buffer", func(t *testing.T) {
		big := bytes.Repeat([]byte{'b'}, 3*ClientReadBufSize+5)
		want := []ClientRequest{
			{ID: 1, Op: ClientGet, Key: "a"},
			{ID: 2, Op: ClientPut, Key: "b", Val: big},
			{ID: 3, Op: ClientPut, Key: "c", Val: big},
			{ID: 4, Op: ClientGet, Key: "d"},
		}
		sameRequests(t, readRequests(t, buffered(bytes.NewReader(clientStream(t, want)))), want)
	})
	t.Run("oversized-prefix", func(t *testing.T) {
		for _, size := range []uint32{maxClientFrame + 1, 0xFFFFFFFF} {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], size)
			br := buffered(bytes.NewReader(hdr[:]))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadClientFrame(br, nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted a %d-byte frame", size)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejecting a %d-byte prefix allocated %d bytes", size, n)
			}
		}
	})
}

// TestClientFrameWriterEncodeErrorWritesNothing pins the split a session
// relies on: an unencodable frame is reported as ErrUnencodable and leaves
// the stream untouched, while a failed write is not ErrUnencodable.
func TestClientFrameWriterEncodeErrorWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	var fw ClientFrameWriter
	for _, r := range []ClientRequest{
		{ID: 1, Op: ClientGet, Key: ""},
		{ID: 2, Op: ClientGet, Key: strings.Repeat("k", 256)},
		{ID: 3, Op: ClientPut, Key: "k", Val: make([]byte, MaxValueLen+1)},
	} {
		if err := fw.WriteRequest(&buf, r); !errors.Is(err, ErrUnencodable) {
			t.Fatalf("request %d: %v, want ErrUnencodable", r.ID, err)
		}
	}
	if err := fw.WriteResponse(&buf, ClientResponse{ID: 4, Status: 99}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("response: %v, want ErrUnencodable", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unencodable frames wrote %d bytes", buf.Len())
	}
	pr, pw := io.Pipe()
	pr.Close()
	if err := fw.WriteRequest(pw, ClientRequest{ID: 5, Op: ClientGet, Key: "k"}); err == nil || errors.Is(err, ErrUnencodable) {
		t.Fatalf("failed write: %v, want a stream error", err)
	}
}
