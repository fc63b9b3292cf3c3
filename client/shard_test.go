package client

import (
	"context"
	"io"
	"net/http"
	"testing"
)

// zeroReply is a reply body of limit zero bytes that counts how many of
// them were read.
type zeroReply struct{ read, limit int64 }

func (z *zeroReply) Read(p []byte) (int, error) {
	if z.read >= z.limit {
		return 0, io.EOF
	}
	k := min(int64(len(p)), z.limit-z.read)
	clear(p[:k])
	z.read += k
	return int(k), nil
}

// zeroTransport answers every request with a 200 whose body is z.
type zeroTransport struct{ z *zeroReply }

func (t zeroTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(t.z), Request: r}, nil
}

// TestCollectShardBoundsReply: an 8-run shard's runs frame is 92 bytes, so
// a worker answering with 16 MB of zeros gets an error after the client has
// read at most 93 of them, one past the frame, instead of all 16 MB.
func TestCollectShardBoundsReply(t *testing.T) {
	z := &zeroReply{limit: 16 << 20}
	c := New("http://worker", WithTransport(zeroTransport{z}))
	if _, err := c.CollectShard(context.Background(), testSpec(0, 8)); err == nil {
		t.Fatal("a 16 MB reply to an 8-run shard was accepted")
	}
	if z.read > 93 {
		t.Fatalf("the client read %d bytes of the reply, want at most 93", z.read)
	}
}
